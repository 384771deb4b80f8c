// Package dataset provides the synthetic workloads every experiment runs
// on: separable and non-separable classification tasks,
// keyword-spotting-style sequences and machine vibration streams for
// predictive maintenance — plus the two operational
// tools the paper's challenges revolve around: drift injection (§III-B
// observability) and non-IID partitioning (§III-D federated learning).
//
// Real TinyML corpora (speech commands, sensor logs) are not available in
// this offline reproduction; these generators preserve the distributional
// properties the platform code actually consumes (cluster structure,
// spectral structure, label skew, distribution shift).
package dataset
