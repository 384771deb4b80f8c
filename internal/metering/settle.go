package metering

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Receipt is the server's settlement answer.
type Receipt struct {
	OK bool
	// AckSeq is the highest charge sequence the server has accepted.
	AckSeq uint64
	// Reason explains a rejection — these are the §III-C tamper signals.
	Reason string
	// ProofsChecked counts the inference proofs verified for this report
	// (zero when verified billing is off).
	ProofsChecked int
}

// Tamper reasons reported in Receipt.Reason.
const (
	ReasonBadVoucher   = "voucher signature invalid"
	ReasonRollback     = "rollback detected: report restarts below settled sequence"
	ReasonGap          = "gap detected: report skips sequences"
	ReasonBadChain     = "hash chain broken"
	ReasonOverQuota    = "claimed usage exceeds voucher quota"
	ReasonBadUsage     = "claimed usage inconsistent with entries"
	ReasonProofMissing = "sampled charge missing inference proof"
	ReasonProofInvalid = "inference proof rejected"
)

// voucherState is what the vendor remembers per voucher between
// settlements: the last accepted head and sequence.
type voucherState struct {
	head [32]byte
	seq  uint64
	used uint64
}

// Settler is the vendor-side settlement service.
type Settler struct {
	issuer *Issuer

	mu    sync.Mutex
	state map[string]*voucherState
	// TamperLog records rejected settlements for audit.
	tamperLog []string
	// lastReceipt remembers each voucher's latest settlement verdict for
	// audit (see faults.Audit).
	lastReceipt map[string]Receipt
	// attRate and attVerifier drive verified billing (see attest.go).
	attRate     int
	attVerifier AttestationVerifier
}

// NewSettler returns a settlement service trusting vouchers from issuer.
func NewSettler(issuer *Issuer) *Settler {
	return &Settler{
		issuer:      issuer,
		state:       make(map[string]*voucherState),
		lastReceipt: make(map[string]Receipt),
	}
}

// Settle verifies a usage report and returns a receipt. On success the
// server state advances; on any inconsistency the report is rejected and
// logged.
func (s *Settler) Settle(r Report) Receipt {
	return s.SettleAttested(AttestedReport{Report: r})
}

// SettleAttested is Settle for reports carrying inference proofs. When
// the settler has been armed with SetAttestation, the deterministic
// sample of the report's charges must each carry a valid proof — a
// missing, surplus, duplicate or failing proof rejects the whole report
// before any state advances.
func (s *Settler) SettleAttested(r AttestedReport) Receipt {
	if !s.issuer.Verify(&r.Voucher) {
		return s.reject(r.Report, ReasonBadVoucher)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.state[r.Voucher.ID]
	if !ok {
		st = &voucherState{head: GenesisHead(r.Voucher)}
		s.state[r.Voucher.ID] = st
	}
	switch {
	case r.FromSeq <= st.seq:
		return s.rejectLocked(r.Report, ReasonRollback)
	case r.FromSeq > st.seq+1:
		return s.rejectLocked(r.Report, ReasonGap)
	}
	// Verify the chain extends the stored head, with contiguous sequences.
	head := st.head
	seq := st.seq
	entryHash := make(map[uint64][32]byte, len(r.Entries))
	for i := range r.Entries {
		e := &r.Entries[i]
		if e.Seq != seq+1 {
			return s.rejectLocked(r.Report, ReasonGap)
		}
		want := chainHash(head, e.Seq, e.Tick, r.Voucher.ID)
		if want != e.Hash {
			return s.rejectLocked(r.Report, ReasonBadChain)
		}
		head = e.Hash
		seq = e.Seq
		entryHash[e.Seq] = e.Hash
	}
	if r.Used != seq {
		return s.rejectLocked(r.Report, ReasonBadUsage)
	}
	if r.Used > r.Voucher.Queries {
		return s.rejectLocked(r.Report, ReasonOverQuota)
	}
	proofsChecked := 0
	if s.attVerifier != nil {
		// Resolve the sample against the verified terminal head, never the
		// device's claims: head now covers every accepted entry.
		sampledCount := 0
		for _, e := range r.Entries {
			if Sampled(head, r.Voucher.ID, e.Seq, s.attRate) {
				sampledCount++
			}
		}
		seen := make(map[uint64]bool, len(r.Attestations))
		checks := make([]AttestationCheck, 0, len(r.Attestations))
		for _, att := range r.Attestations {
			h, inReport := entryHash[att.Seq]
			// A proof for a charge outside this report, for an unsampled
			// charge, or repeated, is a replay or padding attempt.
			if !inReport || seen[att.Seq] || !Sampled(head, r.Voucher.ID, att.Seq, s.attRate) {
				return s.rejectLocked(r.Report, ReasonProofInvalid)
			}
			seen[att.Seq] = true
			checks = append(checks, AttestationCheck{Att: att, EntryHash: h})
		}
		if len(checks) != sampledCount {
			return s.rejectLocked(r.Report, ReasonProofMissing)
		}
		for _, err := range s.attVerifier(r.Voucher, checks) {
			if err != nil {
				return s.rejectLocked(r.Report, ReasonProofInvalid)
			}
		}
		proofsChecked = len(checks)
	}
	st.head = head
	st.seq = seq
	st.used = r.Used
	receipt := Receipt{OK: true, AckSeq: seq, ProofsChecked: proofsChecked}
	s.lastReceipt[r.Voucher.ID] = receipt
	return receipt
}

func (s *Settler) reject(r Report, reason string) Receipt {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rejectLocked(r, reason)
}

func (s *Settler) rejectLocked(r Report, reason string) Receipt {
	s.tamperLog = append(s.tamperLog, fmt.Sprintf("voucher %s: %s", r.Voucher.ID, reason))
	receipt := Receipt{OK: false, Reason: reason}
	s.lastReceipt[r.Voucher.ID] = receipt
	return receipt
}

// LastReceipt returns the most recent settlement verdict for a voucher.
func (s *Settler) LastReceipt(voucherID string) (Receipt, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rc, ok := s.lastReceipt[voucherID]
	return rc, ok
}

// TamperEvents returns the audit log of rejected settlements.
func (s *Settler) TamperEvents() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.tamperLog...)
}

// SettledUsage returns the server-acknowledged usage for a voucher.
func (s *Settler) SettledUsage(voucherID string) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.state[voucherID]
	if !ok {
		return 0, false
	}
	return st.used, true
}

// Server exposes the settler over TCP with newline-delimited JSON — the
// reconnect path a fleet device uses after an offline period.
type Server struct {
	settler  *Settler
	listener net.Listener
	wg       sync.WaitGroup
	closed   chan struct{}
}

// Serve starts accepting settlement connections on l until Close.
func Serve(l net.Listener, settler *Settler) *Server {
	srv := &Server{settler: settler, listener: l, closed: make(chan struct{})}
	srv.wg.Add(1)
	go srv.acceptLoop()
	return srv
}

// acceptLoop hands each connection to its own handler. A failing Accept
// that is not a Close (fd exhaustion, say) is retried on a doubling sleep,
// 5 ms up to 1 s and reset by the next success, as net/http does, so a
// persistent error does not pin a core; Close interrupts the sleep.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			select {
			case <-s.closed:
				return
			case <-time.After(backoff):
				continue
			}
		}
		backoff = 0
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	reader := bufio.NewReader(conn)
	dec := json.NewDecoder(reader)
	enc := json.NewEncoder(conn)
	for {
		// AttestedReport is a wire superset of Report: plain reports decode
		// with no attestations and take the legacy path.
		var report AttestedReport
		if err := dec.Decode(&report); err != nil {
			return
		}
		receipt := s.settler.SettleAttested(report)
		if err := enc.Encode(receipt); err != nil {
			return
		}
	}
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops the server and waits for in-flight settlements.
func (s *Server) Close() error {
	close(s.closed)
	err := s.listener.Close()
	s.wg.Wait()
	return err
}

// SettleOverTCP dials the settlement server, submits the report and
// returns the receipt.
func SettleOverTCP(addr string, report Report) (Receipt, error) {
	return SettleAttestedOverTCP(addr, AttestedReport{Report: report})
}

// SettleAttestedOverTCP dials the settlement server, submits a report
// with its proof sample and returns the receipt.
func SettleAttestedOverTCP(addr string, report AttestedReport) (Receipt, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return Receipt{}, fmt.Errorf("metering: dial settlement server: %w", err)
	}
	defer conn.Close()
	if err := json.NewEncoder(conn).Encode(report); err != nil {
		return Receipt{}, fmt.Errorf("metering: send report: %w", err)
	}
	var receipt Receipt
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&receipt); err != nil {
		return Receipt{}, fmt.Errorf("metering: read receipt: %w", err)
	}
	return receipt, nil
}

// ErrSettlementRejected wraps a rejected receipt for callers that want an
// error-shaped API.
var ErrSettlementRejected = errors.New("metering: settlement rejected")

// MustSettle is a convenience that settles and converts rejection into an
// error. A meter with an attestor settles with its proof sample attached.
func MustSettle(addr string, m *Meter) error {
	report, err := m.BuildAttestedReport()
	if err != nil {
		return err
	}
	receipt, err := SettleAttestedOverTCP(addr, report)
	if err != nil {
		return err
	}
	if !receipt.OK {
		return fmt.Errorf("%w: %s", ErrSettlementRejected, receipt.Reason)
	}
	m.Acknowledge(receipt.AckSeq)
	return nil
}
