// Known-bad fixture for the one-hash check: a private FNV-1a/64 copy
// outside src/sim/snapshot.cc.  Its offset basis can drift from the
// record codec's without any test noticing.  Virtual path:
// src/exp/one_hash.cc.

std::uint64_t
localFnv(std::string_view data)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (const char c : data) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

// The prime in a comment (1099511628211) or a string must NOT trip.
const char *kNote = "FNV prime 1099511628211";
