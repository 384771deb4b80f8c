package metering

import (
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
// server state advances; on any inconsistency the report is rejected.
func (s *Settler) Settle(r Report) Receipt {
	return s.SettleAttested(AttestedReport{Report: r})
}

// SettleAttested is Settle for reports carrying inference proofs. When
// the settler has been armed with SetAttestation, the deterministic
// sample of the report's charges must each carry a valid proof — a
// missing, surplus, duplicate or failing proof rejects the whole report
// before any state advances.
func (s *Settler) SettleAttested(r AttestedReport) Receipt {
	return s.settle(r, false)
}

// settle is the one settlement path. It hashes the chain once, from the
// stored head over the report's (seq, tick) pairs, and checks every hash
// the caller supplied: all of them in process, the last one when framed (a
// report off the wire, see frame.go), whose other entries it fills in with
// what it computed — the decoder made that slice, so it is the settler's
// to write.
func (s *Settler) settle(r AttestedReport, framed bool) Receipt {
	if !s.issuer.Verify(&r.Voucher) {
		// Nothing in an unauthenticated report is evidence about the voucher
		// it names: touch no per-voucher state.
		return Receipt{Reason: ReasonBadVoucher}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := r.Voucher.ID
	st, ok := s.state[id]
	if !ok {
		st = &voucherState{head: GenesisHead(r.Voucher)}
		s.state[id] = st
	}
	switch {
	case r.FromSeq <= st.seq:
		return s.rejectLocked(id, ReasonRollback)
	case r.FromSeq > st.seq+1:
		return s.rejectLocked(id, ReasonGap)
	}
	// Verify the chain extends the stored head, with contiguous sequences.
	head, seq := st.head, st.seq
	for i := range r.Entries {
		e := &r.Entries[i]
		if e.Seq != seq+1 {
			return s.rejectLocked(id, ReasonGap)
		}
		head = chainHash(head, e.Seq, e.Tick, id)
		if framed && i < len(r.Entries)-1 {
			e.Hash = head
		} else if head != e.Hash {
			return s.rejectLocked(id, ReasonBadChain)
		}
		seq = e.Seq
	}
	if r.Used != seq {
		return s.rejectLocked(id, ReasonBadUsage)
	}
	if r.Used > r.Voucher.Queries {
		return s.rejectLocked(id, ReasonOverQuota)
	}
	proofsChecked := 0
	if s.attVerifier != nil {
		// Resolve the sample against the verified terminal head, never the
		// device's claims: head now covers every accepted entry. owed[i] is
		// set while entry i is sampled and no proof has claimed it.
		owed := make([]bool, len(r.Entries))
		sampledCount := 0
		for i := range r.Entries {
			if Sampled(head, id, r.Entries[i].Seq, s.attRate) {
				owed[i] = true
				sampledCount++
			}
		}
		checks := make([]AttestationCheck, 0, len(r.Attestations))
		for _, att := range r.Attestations {
			// The entries are contiguous from FromSeq, so a charge's entry
			// sits at seq − FromSeq. A proof for a charge outside this
			// report, for an unsampled charge, or repeated, is a replay or
			// padding attempt.
			i := att.Seq - r.FromSeq
			if i >= uint64(len(owed)) || !owed[i] {
				return s.rejectLocked(id, ReasonProofInvalid)
			}
			owed[i] = false
			checks = append(checks, AttestationCheck{Att: att, EntryHash: r.Entries[i].Hash})
		}
		if len(checks) != sampledCount {
			return s.rejectLocked(id, ReasonProofMissing)
		}
		for _, err := range s.attVerifier(r.Voucher, checks) {
			if err != nil {
				return s.rejectLocked(id, ReasonProofInvalid)
			}
		}
		proofsChecked = len(checks)
	}
	*st = voucherState{head: head, seq: seq, used: r.Used}
	receipt := Receipt{OK: true, AckSeq: seq, ProofsChecked: proofsChecked}
	s.lastReceipt[id] = receipt
	return receipt
}

func (s *Settler) rejectLocked(voucherID, reason string) Receipt {
	receipt := Receipt{OK: false, Reason: reason}
	s.lastReceipt[voucherID] = receipt
	return receipt
}

// LastReceipt returns the most recent settlement verdict for a voucher.
func (s *Settler) LastReceipt(voucherID string) (Receipt, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rc, ok := s.lastReceipt[voucherID]
	return rc, ok
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

// Server exposes the settler over TCP, one report frame in and one receipt
// frame out per settlement (frame.go) — the reconnect path a fleet device
// uses after an offline period.
type Server struct {
	settler  *Settler
	listener net.Listener
	// timeout bounds each wait on a client: for a whole frame to arrive,
	// and for a receipt to be taken.
	timeout time.Duration
	wg      sync.WaitGroup
	closed  chan struct{}
	// mu guards conns, the connections whose handlers may be waiting for a
	// frame, so Close can interrupt them.
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// dialTimeout and ioTimeout bound a settlement's waits on the network: the
// client's connect and its whole exchange, the server's wait for one frame
// and for its receipt to be taken.
const (
	dialTimeout = 5 * time.Second
	ioTimeout   = 30 * time.Second
)

// Serve starts accepting settlement connections on l until Close.
func Serve(l net.Listener, settler *Settler) *Server {
	return serve(l, settler, ioTimeout)
}

func serve(l net.Listener, settler *Settler, timeout time.Duration) *Server {
	srv := &Server{settler: settler, listener: l, timeout: timeout,
		closed: make(chan struct{}), conns: map[net.Conn]struct{}{}}
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

// handle settles the reports a connection sends, one after another. It
// hangs up on the first frame that is late, over the cap, cut short or not
// a report: a peer that cannot frame one gets no verdict, and no state has
// moved for it. It hangs up too once Close has begun, after writing the
// receipt of a settlement already under way.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	for s.await(conn) {
		payload, err := readFrame(conn)
		if err != nil {
			return
		}
		report, err := decodeReport(payload)
		if err != nil {
			return
		}
		receipt := s.settler.settle(report, true)
		conn.SetWriteDeadline(time.Now().Add(s.timeout)) //nolint:errcheck
		if _, err := conn.Write(encodeReceipt(receipt)); err != nil {
			return
		}
	}
}

// await arms conn's deadline for the next frame and reports whether to wait
// for one: not once Close has begun. Both happen under mu, so Close either
// finds conn here and interrupts the wait, or the handler sees it closing.
func (s *Server) await(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.closed:
		return false
	default:
	}
	s.conns[conn] = struct{}{}
	conn.SetReadDeadline(time.Now().Add(s.timeout)) //nolint:errcheck
	return true
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops the server and waits for in-flight settlements. A handler
// waiting for a frame is interrupted by a read deadline in the past, so an
// idle client does not hold Close for the server's timeout.
func (s *Server) Close() error {
	close(s.closed)
	err := s.listener.Close()
	s.mu.Lock()
	for conn := range s.conns {
		conn.SetReadDeadline(time.Unix(1, 0)) //nolint:errcheck
	}
	s.mu.Unlock()
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
	frame, err := encodeReport(&report)
	if err != nil {
		return Receipt{}, err
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return Receipt{}, fmt.Errorf("metering: dial settlement server: %w", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(ioTimeout)) //nolint:errcheck
	if _, err := conn.Write(frame); err != nil {
		return Receipt{}, fmt.Errorf("metering: send report: %w", err)
	}
	payload, err := readFrame(conn)
	if err != nil {
		return Receipt{}, fmt.Errorf("metering: read receipt: %w", err)
	}
	return decodeReceipt(payload)
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
