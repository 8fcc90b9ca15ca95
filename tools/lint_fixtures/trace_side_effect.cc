// Known-bad fixture for the trace-side-effect check: trace-macro
// arguments that mutate state.  The macros short-circuit when no
// sink is attached or the sink is disabled, so these side effects
// run in traced runs and not in untraced ones.  Virtual path:
// src/soc/trace_side_effect.cc.

void
Traced::step(obs::TraceSink *sink)
{
    // Increment inside a counter sample: lost when tracing is off.
    TRACE_COUNTER(sink, obs::kCatPower, "rail", now_, ++samples_);
    // Compound assignment inside an instant's kv payload.
    TRACE_INSTANT(sink, obs::kCatScenario, "phase", now_,
                  obs::kv("total", total_ += delta_));
    // Bare assignment spanning lines inside a span argument list.
    TRACE_SPAN(sink, obs::kCatTransition, "drain", begin_,
               end_ = clock_.now(),
               obs::kv("steps", steps_));
    // Pure arguments must NOT trip: comparisons, calls, arithmetic.
    TRACE_COUNTER(sink, obs::kCatPower, "ok", now_,
                  samples_ >= limit_ ? limit_ : samples_ + 1);
    // "x = y" inside a string literal must NOT trip either.
    TRACE_INSTANT(sink, obs::kCatScenario, "note = raw", now_, "a = b");
    // A waived site with a reason is fine:
    // lint:allow trace-side-effect -- fixture: sanctioned seam
    TRACE_COUNTER(sink, obs::kCatPower, "waived", now_, tick_++);
}
