package device

import (
	"fmt"
	"sync"
)

// fleetShards is the number of ID-hash shards a Fleet spreads its index
// over. Lookups during a parallel round (one Get per device work item)
// then contend on 1/fleetShards of the lock traffic a single map would see.
const fleetShards = 32

// fleetShard is one RWMutex-guarded slice of the ID index.
type fleetShard struct {
	mu      sync.RWMutex
	devices map[string]*Device
}

// Fleet is a collection of simulated devices addressed by ID. The ID index
// is sharded so concurrent lookups from a fleet-round worker pool scale;
// insertion order is kept separately for deterministic iteration. All
// methods are safe for concurrent use.
type Fleet struct {
	shards [fleetShards]fleetShard

	ordMu sync.RWMutex
	order []*Device
}

// NewFleet returns an empty fleet.
func NewFleet() *Fleet {
	f := &Fleet{}
	for i := range f.shards {
		f.shards[i].devices = make(map[string]*Device)
	}
	return f
}

// shardFor hashes an ID (FNV-1a) onto its shard.
func (f *Fleet) shardFor(id string) *fleetShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return &f.shards[h%fleetShards]
}

// Add registers a device; it returns an error on duplicate IDs.
func (f *Fleet) Add(d *Device) error {
	s := f.shardFor(d.ID)
	s.mu.Lock()
	if _, exists := s.devices[d.ID]; exists {
		s.mu.Unlock()
		return fmt.Errorf("device: duplicate device id %q", d.ID)
	}
	s.devices[d.ID] = d
	s.mu.Unlock()

	f.ordMu.Lock()
	f.order = append(f.order, d)
	f.ordMu.Unlock()
	return nil
}

// Get returns the device with the given ID.
func (f *Fleet) Get(id string) (*Device, bool) {
	s := f.shardFor(id)
	s.mu.RLock()
	d, ok := s.devices[id]
	s.mu.RUnlock()
	return d, ok
}

// Size returns the number of devices.
func (f *Fleet) Size() int {
	f.ordMu.RLock()
	defer f.ordMu.RUnlock()
	return len(f.order)
}

// Devices returns the devices in insertion order.
func (f *Fleet) Devices() []*Device {
	f.ordMu.RLock()
	defer f.ordMu.RUnlock()
	return append([]*Device(nil), f.order...)
}

// Tick advances every device's behavioral state by one step, serially.
// engine.FleetRunner.Tick is the parallel equivalent.
func (f *Fleet) Tick() {
	for _, d := range f.Devices() {
		d.Tick()
	}
}

// Eligible returns devices that currently satisfy the federated-client
// gate of §III-D: on a charger and on WiFi (so training neither drains the
// battery nor burns metered bandwidth).
func (f *Fleet) Eligible() []*Device {
	var out []*Device
	for _, d := range f.Devices() {
		if d.Charging() && d.Net() == WiFi {
			out = append(out, d)
		}
	}
	return out
}

// FleetSpec configures NewStandardFleet.
type FleetSpec struct {
	// CountPerProfile is the number of devices per standard profile.
	CountPerProfile int
	// Seed derives each device's behavioral RNG.
	Seed uint64
}

// NewStandardFleet builds a heterogeneous fleet with CountPerProfile
// devices of each standard profile, deterministically from the seed.
func NewStandardFleet(spec FleetSpec) (*Fleet, error) {
	if spec.CountPerProfile < 1 {
		spec.CountPerProfile = 1
	}
	f := NewFleet()
	root := newSeeder(spec.Seed)
	for _, p := range StandardProfiles() {
		for i := 0; i < spec.CountPerProfile; i++ {
			id := fmt.Sprintf("%s-%02d", p.Name, i)
			d := NewDevice(id, p, root.next())
			if err := f.Add(d); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}
