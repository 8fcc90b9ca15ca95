// Known-bad fixture for the governor-soc-mutation check: a policy
// that bypasses the driver and pokes the SoC directly.  Virtual
// path: src/core/governor_zoo.cc (a policy-layer file).

void
BadGovernor::decide(GovernorDriver &drv, soc::Soc &soc,
                    const soc::CounterSnapshot &avg)
{
    (void)drv;
    (void)avg;
    // Direct budget mutation: skips the driver's billing cadence.
    soc.setComputeBudget(1.5);
    // Direct core-clock cap: skips the mechanics passthrough.
    soc.cpu().setFreqCap(2.0e9);
    // Hand-rolled flow execution: skips the latency constraint and
    // the driver's flow accounting entirely.
    flow_.execute(soc.opPoints().low());
    // "soc.setComputeBudget(0.0)" in a string must NOT trip.
    log("soc.setComputeBudget(0.0)");
    // A waived site with a reason is fine:
    // lint:allow governor-soc-mutation -- fixture: sanctioned seam
    soc.setWorkload(nullptr);
}
