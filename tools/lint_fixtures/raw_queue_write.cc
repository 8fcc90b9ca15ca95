// Known-bad fixture: queue-layer writes that bypass the one publish
// helper (writeSnapshotFile).  A crashed writer leaves a torn file a
// reader can claim.  Scanned as if it lived under src/dist/.
#include <fstream>
#include <string>

void publishRaw(const std::string &dir, const std::string &key,
                const std::string &text)
{
    std::ofstream os(dir + "/pending/" + key); // finding: raw write
    os << text;
}

void publishHandRolled(const std::string &dir, const std::string &key,
                       const std::string &text)
{
    // finding: a hand-rolled staging copy is still a raw write
    const std::string tmp = dir + "/tmp/" + key;
    std::ofstream os(tmp);
    os << text;
}

void touchLease(const std::string &lease)
{
    // lint:allow raw-queue-write -- fixture: mtime-only heartbeat
    std::ofstream os(lease);
}
