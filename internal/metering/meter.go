package metering

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Entry is one link of the device's usage hash chain:
// Hash_i = SHA-256(Hash_{i-1} ‖ seq ‖ tick ‖ voucherID).
type Entry struct {
	// Seq is the 1-based charge index under the voucher.
	Seq uint64
	// Tick is the device-local time of the charge.
	Tick uint64
	// Hash chains this entry to its predecessor.
	Hash [32]byte
}

// ErrQuotaExhausted is returned by Charge when the prepaid package is used
// up; the application must deny the query (§III-C).
var ErrQuotaExhausted = errors.New("metering: prepaid quota exhausted")

// Meter is the on-device enforcement point: it admits or denies queries
// against the voucher quota entirely offline and appends every admitted
// charge to the hash chain for later settlement. Safe for concurrent use.
type Meter struct {
	mu      sync.Mutex
	voucher Voucher
	used    uint64
	head    [32]byte
	// unsettled holds entries since the last acknowledged settlement.
	unsettled []Entry
	// settledSeq is the last charge sequence the server has acknowledged.
	settledSeq uint64
	// attestor and attRate drive verified billing (see attest.go).
	attestor Attestor
	attRate  int
}

// NewMeter binds a meter to a voucher on a device. The genesis hash chains
// in the voucher identity so logs from different vouchers can never be
// spliced.
func NewMeter(v Voucher) *Meter {
	return &Meter{voucher: v, head: GenesisHead(v)}
}

// Voucher returns the bound voucher.
func (m *Meter) Voucher() Voucher {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.voucher
}

// Used returns the number of charges so far.
func (m *Meter) Used() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

// Remaining returns the unused quota.
func (m *Meter) Remaining() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.voucher.Queries - m.used
}

// Charge admits one query at the device-local tick, or returns
// ErrQuotaExhausted. The charge is appended to the tamper-evident chain.
func (m *Meter) Charge(tick uint64) error {
	_, err := m.ChargeSeq(tick)
	return err
}

// ChargeSeq is Charge returning the assigned chain sequence, so callers
// retaining per-charge evidence (verified billing) can key it.
func (m *Meter) ChargeSeq(tick uint64) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.used >= m.voucher.Queries {
		return 0, fmt.Errorf("%w: %d/%d", ErrQuotaExhausted, m.used, m.voucher.Queries)
	}
	m.used++
	e := Entry{Seq: m.used, Tick: tick}
	e.Hash = chainHash(m.head, e.Seq, e.Tick, m.voucher.ID)
	m.head = e.Hash
	m.unsettled = append(m.unsettled, e)
	return e.Seq, nil
}

// chainHash is one SHA-256 over prev ‖ seq ‖ tick ‖ voucherID, assembled on
// the stack: a charge allocates nothing. A voucher ID too long for the
// buffer makes append move it to the heap, and the hash is the same.
func chainHash(prev [32]byte, seq, tick uint64, voucherID string) [32]byte {
	var stack [128]byte
	buf := append(stack[:0], prev[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, tick)
	buf = append(buf, voucherID...)
	return sha256.Sum256(buf)
}

// VerifyChain recomputes the unsettled chain from the last settled head
// and reports whether every link is intact. A device-side integrity check;
// the server performs the same computation during settlement.
func VerifyChain(v Voucher, start [32]byte, entries []Entry) error {
	head := start
	for i := range entries {
		e := &entries[i]
		want := chainHash(head, e.Seq, e.Tick, v.ID)
		if want != e.Hash {
			return fmt.Errorf("metering: chain broken at seq %d", e.Seq)
		}
		head = e.Hash
	}
	return nil
}

// Report is the settlement message: the unsettled chain segment plus the
// voucher, so the server can verify extension from its stored head.
type Report struct {
	Voucher Voucher
	// FromSeq is the first entry's expected sequence (settledSeq+1).
	FromSeq uint64
	Entries []Entry
	// Used is the device's claimed cumulative usage.
	Used uint64
}

// BuildReport snapshots the unsettled usage for settlement. It does not
// mutate the meter; call Acknowledge with the server receipt to prune.
func (m *Meter) BuildReport() Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reportLocked()
}

// reportLocked copies the unsettled usage into a report; m.mu is held.
func (m *Meter) reportLocked() Report {
	entries := make([]Entry, len(m.unsettled))
	copy(entries, m.unsettled)
	return Report{
		Voucher: m.voucher,
		FromSeq: m.settledSeq + 1,
		Entries: entries,
		Used:    m.used,
	}
}

// Acknowledge prunes entries the server has accepted through seq.
func (m *Meter) Acknowledge(throughSeq uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if throughSeq <= m.settledSeq {
		return
	}
	keep := m.unsettled[:0]
	for _, e := range m.unsettled {
		if e.Seq > throughSeq {
			keep = append(keep, e)
		}
	}
	m.unsettled = keep
	m.settledSeq = throughSeq
}

// SettledSeq returns the last server-acknowledged charge sequence.
func (m *Meter) SettledSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.settledSeq
}

// GenesisHead returns the chain genesis for a voucher — what the server
// stores before the first settlement.
func GenesisHead(v Voucher) [32]byte {
	return sha256.Sum256([]byte("genesis|" + v.ID + "|" + v.DeviceID))
}
