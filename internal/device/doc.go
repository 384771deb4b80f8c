// Package device simulates the fragmented edge-hardware landscape of §IV:
// heterogeneous device classes (Cortex-M-class MCUs, NPU-equipped boards,
// smartphones, edge servers) with distinct compute throughput per bit
// width, memory ceilings, energy budgets, battery/charger dynamics and
// network connectivity.
//
// The paper's platform decisions — which model variant to push to which
// device, when to upload telemetry, when a federated client may train,
// where to split a model between edge and cloud — consume exactly the
// scalar capabilities modeled here, which is what makes a simulator a
// faithful substitute for physical hardware in this reproduction (see
// DESIGN.md §1).
//
// Every Device and Fleet method is safe for concurrent use, because the
// operational premise of the paper is scale: internal/engine drives
// thousands of devices per round from a bounded worker pool. A Fleet is one
// RWMutex over its ID index and insertion order; a round's lookups take it
// shared.
package device
