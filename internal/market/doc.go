// Package market implements the §IV vision of orchestrated edge
// workloads: devices advertise spare capacity at a price (owners "receive
// a monetary compensation"), workloads declare requirements (ops, memory,
// latency, price) and a broker matches them; and a model
// can be split between edge and cloud at the layer granularity that
// minimizes end-to-end latency for the current network bandwidth (refs
// [62]–[65]).
//
// The paper treats partitioned execution as an operational concern, not
// an offline calculation: the right cut point depends on the device's
// compute rate, the uplink bandwidth of the moment and the cloud's load,
// all of which move while a deployment is live. BestSplit is therefore a
// pure planner — it evaluates the full per-cut latency curve for one set
// of conditions and picks the minimum — and the live half of the story
// lives in internal/offload, which executes a SplitPlan against the real
// fleet (shipping the boundary activation, charging the meter and radio)
// and re-invokes BestSplit as conditions drift. Match is the companion
// broker for whole workloads: cheapest-feasible assignment under price,
// op-support, memory and latency constraints (no sandbox capabilities).
package market
