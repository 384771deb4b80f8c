// Package exec is the one executor abstraction of the platform: the single
// place that knows which kernels run a variant kind and how its activations
// cross an edge–cloud cut.
//
// The paper's fragmentation (§III-A), edge–cloud split (§IV) and
// IP-protection (§V) challenges give the platform five variant kinds. They
// reduce to three executors —
//
//   - Float: the float engine's fused batch programs, for float bases and
//     their watermarked copies;
//   - Quant: the integer kernels of a quant.QModel, for every integer
//     variant on every device, split only at dense-stage boundaries and
//     shipped as QAB1 int8 codes;
//   - Module: a compiled procvm module, one indivisible step;
//
// — plus Hosted, which wraps any of them for execution inside an enclave
// and adds nothing but the protected world's slowdown factor.
//
// An executor is built once per model version, and its geometry is fixed
// there: a network's shapes were inferred, and a network whose shapes do not
// chain refused, when nn.Assemble made it, so Float and Quant only read the
// plan it kept. Costs and the shape entering any step are plain reads, and
// Run checks a batch once, against the step it enters.
//
// core.Deployment serves local queries with Run(x, 0, n); offload.Session
// runs the device prefix with Run(x, 0, cut), ships EncodeBoundary's bytes
// and finishes a failed split with Run(act, cut, n); offload.CloudTier
// admits a payload with DecodeBoundary, which decodes it into the arena the
// tier lends, and serves it with Resume in that arena. None of the three
// switches on a kind. The invariant every implementation keeps, pinned by
// the package's conformance test, is that prefix → encode → decode →
// resume is bit-identical to the whole pass at every cut SnapCut allows.
package exec
