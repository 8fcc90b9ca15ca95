// Clean fixture: deterministic, published through the helper,
// scanned as if under src/dist/ — must produce zero findings.
#include <random>
#include <string>

#include "sim/snapshot.hh"

unsigned seededDraw(unsigned seed)
{
    std::mt19937 rng(seed); // deterministic: seed comes from the spec
    return rng();
}

void stagedWrite(const std::string &dir, const std::string &key,
                 const std::string &text)
{
    sysscale::writeSnapshotFile(dir + "/pending/" + key, text,
                                dir + "/tmp");
}
