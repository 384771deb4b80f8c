package market

import (
	"fmt"
	"sort"
	"time"

	"tinymlops/internal/device"
	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
)

// Workload is a unit of ML work seeking a host.
type Workload struct {
	ID string
	// MACs per request at the given weight Bits.
	MACs int64
	Bits int
	// ModelBytes must fit flash, RAMBytes must fit memory.
	ModelBytes int64
	RAMBytes   int64
	// RequiredOps must all have native kernels on the host.
	RequiredOps []string
	// RequiredCaps is the sandbox capability set the container needs.
	RequiredCaps procvm.Capability
	// MaxLatency bounds per-request latency on the host (0 = unbounded).
	MaxLatency time.Duration
	// MaxPricePerGMAC is the requester's price cap (arbitrary currency
	// units per 10⁹ MACs).
	MaxPricePerGMAC float64
}

// Offer is a device advertising capacity.
type Offer struct {
	Device *device.Device
	// PricePerGMAC is the asking price.
	PricePerGMAC float64
	// GrantedCaps is the sandbox capability set the owner grants.
	GrantedCaps procvm.Capability
	// CapacityMACs is the total MAC budget the owner sells this round.
	CapacityMACs int64
}

// NewOffer derives an ask from the device's marginal energy cost times a
// margin, with a battery premium: a device not on a charger prices its
// battery 3× (selling scarce joules), matching the paper's incentive story.
func NewOffer(d *device.Device, energyPricePerJoule, margin float64, granted procvm.Capability, capacityMACs int64) Offer {
	costPerGMAC := d.Caps.EnergyPerMACJoule * 1e9 * energyPricePerJoule
	premium := 1.0
	if !d.Charging() {
		premium = 3.0
	}
	return Offer{
		Device:       d,
		PricePerGMAC: costPerGMAC * margin * premium,
		GrantedCaps:  granted,
		CapacityMACs: capacityMACs,
	}
}

// Assignment records a matched workload.
type Assignment struct {
	WorkloadID string
	DeviceID   string
	// PricePerGMAC agreed (the offer's ask).
	PricePerGMAC float64
	// Latency is the modeled per-request latency on the host.
	Latency time.Duration
}

// Match assigns each workload (in order) to the cheapest feasible offer
// with remaining capacity. It returns the assignments and the IDs of
// workloads no offer could host.
func Match(workloads []Workload, offers []Offer) ([]Assignment, []string) {
	remaining := make([]int64, len(offers))
	for i := range offers {
		remaining[i] = offers[i].CapacityMACs
	}
	// Deterministic order: cheapest first, device ID as tie-break.
	order := make([]int, len(offers))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		oa, ob := offers[order[a]], offers[order[b]]
		if oa.PricePerGMAC != ob.PricePerGMAC {
			return oa.PricePerGMAC < ob.PricePerGMAC
		}
		return oa.Device.ID < ob.Device.ID
	})
	var out []Assignment
	var unplaced []string
	for _, w := range workloads {
		placed := false
		for _, oi := range order {
			o := offers[oi]
			if remaining[oi] < w.MACs {
				continue
			}
			if o.PricePerGMAC > w.MaxPricePerGMAC {
				continue
			}
			if !o.GrantedCaps.Has(w.RequiredCaps) {
				continue
			}
			if !opsSupported(o.Device, w.RequiredOps) {
				continue
			}
			if err := o.Device.CheckFit(w.ModelBytes, w.RAMBytes); err != nil {
				continue
			}
			lat := o.Device.Caps.InferenceLatency(w.MACs, w.Bits)
			if w.MaxLatency > 0 && lat > w.MaxLatency {
				continue
			}
			remaining[oi] -= w.MACs
			out = append(out, Assignment{
				WorkloadID: w.ID, DeviceID: o.Device.ID,
				PricePerGMAC: o.PricePerGMAC, Latency: lat,
			})
			placed = true
			break
		}
		if !placed {
			unplaced = append(unplaced, w.ID)
		}
	}
	return out, unplaced
}

func opsSupported(d *device.Device, ops []string) bool {
	for _, op := range ops {
		if !d.Caps.SupportsOp(op) {
			return false
		}
	}
	return true
}

// SplitPlan describes running layers [0,Cut) on the device and [Cut,n) on
// the cloud, transferring the activation at the boundary.
type SplitPlan struct {
	// Cut is the number of leading layers on the device (0 = all cloud,
	// n = all edge).
	Cut int
	// DeviceLatency, TxLatency, CloudLatency decompose the total.
	DeviceLatency time.Duration
	TxLatency     time.Duration
	CloudLatency  time.Duration
	Total         time.Duration
}

// TxBytes is the planner's figure for what crosses the uplink at a cut:
// the raw input at cut 0, the float activation leaving layer cut-1 at an
// inner cut, and nothing at n (all on the device).
func TxBytes(costs []nn.LayerCost, cut int, inputBytes int64) int64 {
	switch {
	case cut == len(costs):
		return 0
	case cut == 0:
		return inputBytes
	default:
		return 4 * costs[cut-1].Info.ActivationFloats
	}
}

// BestSplit finds the layer cut minimizing end-to-end latency for one
// request. bandwidthBps is the device's uplink in bytes/second (0 means no
// connectivity, forcing the full-edge plan; negative is rejected); rtt is
// the fixed network round-trip added to any plan that touches the cloud;
// inputBytes is the size of the raw input (transferred when Cut = 0).
// It returns the best plan and the full per-cut curve (for the E7 sweep).
func BestSplit(costs []nn.LayerCost, dev, cloud device.Capabilities, bits int, bandwidthBps float64, rtt time.Duration, inputBytes int64) (SplitPlan, []SplitPlan, error) {
	if len(costs) == 0 {
		return SplitPlan{}, nil, fmt.Errorf("market: empty layer costs")
	}
	if bandwidthBps < 0 {
		return SplitPlan{}, nil, fmt.Errorf("market: negative bandwidth %v B/s", bandwidthBps)
	}
	if inputBytes < 0 {
		return SplitPlan{}, nil, fmt.Errorf("market: negative input size %d bytes", inputBytes)
	}
	if rtt < 0 {
		return SplitPlan{}, nil, fmt.Errorf("market: negative rtt %v", rtt)
	}
	if bandwidthBps == 0 {
		// No connectivity: the only valid plan is fully on-device.
		var devLat time.Duration
		for _, c := range costs {
			devLat += dev.InferenceLatency(c.Info.MACs, bits)
		}
		p := SplitPlan{Cut: len(costs), DeviceLatency: devLat, Total: devLat}
		return p, []SplitPlan{p}, nil
	}
	curve := make([]SplitPlan, 0, len(costs)+1)
	for cut := 0; cut <= len(costs); cut++ {
		var p SplitPlan
		p.Cut = cut
		for i := 0; i < cut; i++ {
			p.DeviceLatency += dev.InferenceLatency(costs[i].Info.MACs, bits)
		}
		for i := cut; i < len(costs); i++ {
			p.CloudLatency += cloud.InferenceLatency(costs[i].Info.MACs, bits)
		}
		if cut < len(costs) {
			// Something crosses the network: activation (or input) + RTT.
			p.TxLatency = rtt + time.Duration(float64(TxBytes(costs, cut, inputBytes))/bandwidthBps*float64(time.Second))
		}
		p.Total = p.DeviceLatency + p.TxLatency + p.CloudLatency
		curve = append(curve, p)
	}
	best := curve[0]
	for _, p := range curve[1:] {
		if p.Total < best.Total {
			best = p
		}
	}
	return best, curve, nil
}
