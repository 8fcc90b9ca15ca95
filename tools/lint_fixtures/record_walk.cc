// Known-bad fixture for the record-walk check: a record written and
// read back by a hand-written pair, so each field is named twice.
// Virtual path: src/dist/record_walk.cc (four findings); mapped to
// src/sim/snapshot.cc, the codec's own home, it must stay clean.

std::string
encodeMarker(const Marker &m)
{
    SnapshotWriter w(kHeader);
    w.putString("key", m.key);
    w.putDouble("host_seconds", m.hostSeconds);
    return w.str();
}

void
decodeMarker(SnapshotReader &r, Marker &m)
{
    m.key = r.getString("key");
    m.hostSeconds = r.reader().getDouble ("host_seconds");
}

// The accessors in a comment (w.putU64("n", 1)) or a string must NOT
// trip, nor must the one walk that names each field once.
const char *kNote = "w.putU64(\"n\", 1)";

void
visit(StateIO &io, Marker &m)
{
    io.field("key", m.key);
    io.field("host_seconds", m.hostSeconds);
}
