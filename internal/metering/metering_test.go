package metering

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var vendorKey = []byte("vendor-signing-key-0123456789abcdef")

func issuer(t *testing.T) *Issuer {
	t.Helper()
	is, err := NewIssuer(vendorKey)
	if err != nil {
		t.Fatal(err)
	}
	return is
}

func TestIssueAndVerifyVoucher(t *testing.T) {
	is := issuer(t)
	v, err := is.Issue("dev-1", "model-a", 100)
	if err != nil {
		t.Fatal(err)
	}
	if !is.Verify(&v) {
		t.Fatal("genuine voucher rejected")
	}
	// Any field change breaks the signature.
	forged := v
	forged.Queries = 1_000_000
	if is.Verify(&forged) {
		t.Fatal("quota-inflated voucher accepted")
	}
	rebound := v
	rebound.DeviceID = "dev-2"
	if is.Verify(&rebound) {
		t.Fatal("device-rebound voucher accepted")
	}
}

func TestIssuerValidation(t *testing.T) {
	if _, err := NewIssuer([]byte("short")); err == nil {
		t.Fatal("accepted short key")
	}
	is := issuer(t)
	if _, err := is.Issue("", "m", 10); err == nil {
		t.Fatal("accepted empty device ID")
	}
	if _, err := is.Issue("d", "m", 0); err == nil {
		t.Fatal("accepted zero-query voucher")
	}
}

func TestMeterEnforcesQuotaOffline(t *testing.T) {
	is := issuer(t)
	v, _ := is.Issue("dev-1", "model-a", 5)
	m := NewMeter(v)
	for i := 0; i < 5; i++ {
		if err := m.Charge(uint64(i)); err != nil {
			t.Fatalf("charge %d: %v", i, err)
		}
	}
	if err := m.Charge(5); !errors.Is(err, ErrQuotaExhausted) {
		t.Fatalf("6th charge: %v, want quota exhausted", err)
	}
	if m.Used() != 5 || m.Remaining() != 0 {
		t.Fatalf("used=%d remaining=%d", m.Used(), m.Remaining())
	}
}

func TestChainVerifies(t *testing.T) {
	is := issuer(t)
	v, _ := is.Issue("dev-1", "model-a", 10)
	m := NewMeter(v)
	for i := 0; i < 7; i++ {
		m.Charge(uint64(i * 10)) //nolint:errcheck
	}
	r := m.BuildReport()
	if err := VerifyChain(v, GenesisHead(v), r.Entries); err != nil {
		t.Fatal(err)
	}
	// Tamper with an entry: verification must fail.
	r.Entries[3].Tick = 999
	if err := VerifyChain(v, GenesisHead(v), r.Entries); err == nil {
		t.Fatal("tampered chain verified")
	}
}

func TestSettlementHappyPath(t *testing.T) {
	is := issuer(t)
	settler := NewSettler(is)
	v, _ := is.Issue("dev-1", "model-a", 100)
	m := NewMeter(v)
	for i := 0; i < 10; i++ {
		m.Charge(uint64(i)) //nolint:errcheck
	}
	receipt := settler.Settle(m.BuildReport())
	if !receipt.OK || receipt.AckSeq != 10 {
		t.Fatalf("receipt = %+v", receipt)
	}
	m.Acknowledge(receipt.AckSeq)
	// Continue charging and settle the increment only.
	for i := 10; i < 15; i++ {
		m.Charge(uint64(i)) //nolint:errcheck
	}
	r2 := m.BuildReport()
	if r2.FromSeq != 11 || len(r2.Entries) != 5 {
		t.Fatalf("incremental report = from %d, %d entries", r2.FromSeq, len(r2.Entries))
	}
	receipt2 := settler.Settle(r2)
	if !receipt2.OK || receipt2.AckSeq != 15 {
		t.Fatalf("receipt2 = %+v", receipt2)
	}
	used, ok := settler.SettledUsage(v.ID)
	if !ok || used != 15 {
		t.Fatalf("settled usage = %d", used)
	}
}

func TestSettlementDetectsRollback(t *testing.T) {
	is := issuer(t)
	settler := NewSettler(is)
	v, _ := is.Issue("dev-1", "model-a", 100)
	m := NewMeter(v)
	for i := 0; i < 10; i++ {
		m.Charge(uint64(i)) //nolint:errcheck
	}
	r := m.BuildReport()
	if rec := settler.Settle(r); !rec.OK {
		t.Fatalf("first settle: %+v", rec)
	}
	// Replay the same report (the device "forgot" it paid).
	rec := settler.Settle(r)
	if rec.OK || rec.Reason != ReasonRollback {
		t.Fatalf("replayed report = %+v, want rollback", rec)
	}
	// A reset meter (fresh chain) also restarts below the settled seq.
	m2 := NewMeter(v)
	m2.Charge(0) //nolint:errcheck
	rec2 := settler.Settle(m2.BuildReport())
	if rec2.OK || rec2.Reason != ReasonRollback {
		t.Fatalf("reset-meter report = %+v, want rollback", rec2)
	}
}

func TestSettlementDetectsForgedEntries(t *testing.T) {
	is := issuer(t)
	settler := NewSettler(is)
	v, _ := is.Issue("dev-1", "model-a", 100)
	m := NewMeter(v)
	for i := 0; i < 5; i++ {
		m.Charge(uint64(i)) //nolint:errcheck
	}
	r := m.BuildReport()
	// The device under-reports by dropping the last two entries but keeps
	// its cumulative claim: usage inconsistency.
	r2 := r
	r2.Entries = r.Entries[:3]
	if rec := settler.Settle(r2); rec.OK || rec.Reason != ReasonBadUsage {
		t.Fatalf("under-report = %+v", rec)
	}
	// Fabricated hash breaks the chain.
	r3 := m.BuildReport()
	r3.Entries[2].Hash[0] ^= 1
	if rec := settler.Settle(r3); rec.OK || rec.Reason != ReasonBadChain {
		t.Fatalf("forged hash = %+v", rec)
	}
}

func TestSettlementDetectsForgedVoucherAndOverQuota(t *testing.T) {
	is := issuer(t)
	settler := NewSettler(is)
	v, _ := is.Issue("dev-1", "model-a", 3)
	forged := v
	forged.Queries = 100
	m := NewMeter(forged)
	m.Charge(1) //nolint:errcheck
	if rec := settler.Settle(m.BuildReport()); rec.OK || rec.Reason != ReasonBadVoucher {
		t.Fatalf("forged voucher = %+v", rec)
	}
	// Over-quota claim with a *valid* voucher: the device hacked its local
	// meter to ignore the quota. Chain verifies but usage exceeds quota.
	m2 := NewMeter(v)
	for i := 0; i < 3; i++ {
		m2.Charge(uint64(i)) //nolint:errcheck
	}
	r := m2.BuildReport()
	// Hand-extend the chain beyond the quota as an attacker would.
	head := r.Entries[len(r.Entries)-1].Hash
	e := Entry{Seq: 4, Tick: 99}
	e.Hash = chainHash(head, e.Seq, e.Tick, v.ID)
	r.Entries = append(r.Entries, e)
	r.Used = 4
	if rec := settler.Settle(r); rec.OK || rec.Reason != ReasonOverQuota {
		t.Fatalf("over-quota = %+v", rec)
	}
}

func TestSettlementOverTCP(t *testing.T) {
	is := issuer(t)
	settler := NewSettler(is)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, settler)
	defer srv.Close()

	v, _ := is.Issue("dev-1", "model-a", 50)
	m := NewMeter(v)
	for i := 0; i < 20; i++ {
		m.Charge(uint64(i)) //nolint:errcheck
	}
	if err := MustSettle(srv.Addr(), m); err != nil {
		t.Fatal(err)
	}
	used, ok := settler.SettledUsage(v.ID)
	if !ok || used != 20 {
		t.Fatalf("settled usage over TCP = %d", used)
	}
	// Second settlement with no new charges is a rollback replay
	// (FromSeq == settled seq + 1 but empty entries and matching used is
	// fine — verify behavior: empty incremental report).
	if err := MustSettle(srv.Addr(), m); err != nil {
		t.Fatalf("empty incremental settle should succeed: %v", err)
	}
}

func TestSettlementTCPRejectsTamper(t *testing.T) {
	is := issuer(t)
	settler := NewSettler(is)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, settler)
	defer srv.Close()

	v, _ := is.Issue("dev-1", "model-a", 50)
	m := NewMeter(v)
	m.Charge(1) //nolint:errcheck
	r := m.BuildReport()
	r.Entries[0].Hash[0] ^= 1
	receipt, err := SettleOverTCP(srv.Addr(), r)
	if err != nil {
		t.Fatal(err)
	}
	if receipt.OK || receipt.Reason != ReasonBadChain {
		t.Fatalf("receipt = %+v", receipt)
	}
}

// failingListener fails its first n Accepts, then blocks until closed,
// counting every call.
type failingListener struct {
	fails  int
	calls  atomic.Int64
	closed chan struct{}
}

func (l *failingListener) Accept() (net.Conn, error) {
	if int(l.calls.Add(1)) <= l.fails {
		return nil, errors.New("accept: too many open files")
	}
	<-l.closed
	return nil, net.ErrClosed
}
func (l *failingListener) Close() error   { close(l.closed); return nil }
func (l *failingListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestAcceptLoopBacksOffOnPersistentError pins the accept loop's retry
// discipline: a listener that keeps failing is polled on a doubling sleep,
// not in a spin, and Close still returns promptly mid-sleep.
func TestAcceptLoopBacksOffOnPersistentError(t *testing.T) {
	l := &failingListener{fails: 1 << 30, closed: make(chan struct{})}
	srv := Serve(l, NewSettler(issuer(t)))
	time.Sleep(100 * time.Millisecond)
	// 5 + 10 + 20 + 40 ms of sleeps fit in 100 ms: five calls, with slack
	// for a slow box. The old loop made hundreds of thousands.
	if n := l.calls.Load(); n < 2 || n > 8 {
		t.Errorf("%d Accept calls in 100 ms, want a handful", n)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not interrupt the backoff sleep")
	}

	// A success resets the schedule: after a few failures the loop reaches
	// the blocking Accept and stays there.
	l = &failingListener{fails: 3, closed: make(chan struct{})}
	srv = Serve(l, NewSettler(issuer(t)))
	for deadline := time.Now().Add(2 * time.Second); l.calls.Load() < 4 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if n := l.calls.Load(); n != 4 {
		t.Errorf("%d Accept calls after 3 failures, want 4 (the fourth blocks)", n)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCharges(t *testing.T) {
	is := issuer(t)
	v, _ := is.Issue("dev-1", "model-a", 1000)
	m := NewMeter(v)
	var wg sync.WaitGroup
	var denied int64
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := m.Charge(uint64(i)); err != nil {
					mu.Lock()
					denied++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if m.Used() != 1000 {
		t.Fatalf("used = %d, want exactly 1000", m.Used())
	}
	if denied != 600 {
		t.Fatalf("denied = %d, want 600", denied)
	}
	// The concurrent chain must still verify.
	r := m.BuildReport()
	if err := VerifyChain(v, GenesisHead(v), r.Entries); err != nil {
		t.Fatal(err)
	}
}

func TestChargeOverheadIsSmall(t *testing.T) {
	// Sanity check that metering adds microsecond-scale overhead, the E5
	// claim; metering.charge_ns on the serving workloads times it.
	is := issuer(t)
	v, _ := is.Issue("dev-1", "model-a", 100000)
	m := NewMeter(v)
	for i := 0; i < 10000; i++ {
		if err := m.Charge(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGapDetection(t *testing.T) {
	is := issuer(t)
	settler := NewSettler(is)
	v, _ := is.Issue("dev-1", "model-a", 100)
	m := NewMeter(v)
	for i := 0; i < 5; i++ {
		m.Charge(uint64(i)) //nolint:errcheck
	}
	r := m.BuildReport()
	// Drop the first two entries: the report starts above the server seq.
	r.Entries = r.Entries[2:]
	r.FromSeq = 3
	rec := settler.Settle(r)
	if rec.OK || rec.Reason != ReasonGap {
		t.Fatalf("gap report = %+v", rec)
	}
}
