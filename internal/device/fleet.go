package device

import (
	"fmt"
	"sync"
)

// Fleet is a collection of simulated devices addressed by ID, kept in
// insertion order for deterministic iteration. All methods are safe for
// concurrent use.
type Fleet struct {
	mu      sync.RWMutex
	devices map[string]*Device
	order   []*Device
}

// NewFleet returns an empty fleet.
func NewFleet() *Fleet {
	return &Fleet{devices: make(map[string]*Device)}
}

// Add registers a device; it returns an error on duplicate IDs.
func (f *Fleet) Add(d *Device) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, exists := f.devices[d.ID]; exists {
		return fmt.Errorf("device: duplicate device id %q", d.ID)
	}
	f.devices[d.ID] = d
	f.order = append(f.order, d)
	return nil
}

// Get returns the device with the given ID.
func (f *Fleet) Get(id string) (*Device, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	d, ok := f.devices[id]
	return d, ok
}

// Size returns the number of devices.
func (f *Fleet) Size() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.order)
}

// Devices returns the devices in insertion order.
func (f *Fleet) Devices() []*Device {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]*Device(nil), f.order...)
}

// Tick advances every device's behavioral state by one step, serially, in
// insertion order.
func (f *Fleet) Tick() {
	for _, d := range f.Devices() {
		d.Tick()
	}
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
