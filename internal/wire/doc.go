// Package wire is the one strict byte cursor behind the repo's hand-rolled
// wire formats: TMLN1 and TMLD1 (nn), PVM1 (procvm), QAB1 (exec), TMSW
// (swarm), the telemetry record (observe), the federated partial (fed) and
// the settlement frame pair (metering), the one that crosses a real socket.
// Each is parsed by a tier that did not produce the bytes. A decoder reads
// every field through a Reader and returns its Done; that alone gives it
// the rejection contract:
//
//   - a read past the end fails, and the first failure sticks: later reads
//     return zero values, so no decoder checks an error per field;
//   - a varint must be minimal — padded and overlong encodings fail;
//   - a declared length over the format's cap, or one the unread bytes
//     cannot back, fails in Count, before the caller allocates for it;
//   - bytes left over after the last field fail in Done.
//
// A decoder therefore accepts only what its encoder emits. Encoders need no
// counterpart: they append with encoding/binary's Append functions.
package wire
