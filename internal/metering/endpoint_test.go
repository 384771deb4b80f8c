package metering

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// listen starts a settlement server whose waits on a client are cut to
// timeout, and closes it with the test.
func listen(t *testing.T, s *Settler, timeout time.Duration) *Server {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(l, s, timeout)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// chargedMeter issues a voucher for device and charges it n times.
func chargedMeter(t *testing.T, is *Issuer, device string, quota uint64, n int) *Meter {
	t.Helper()
	v, err := is.Issue(device, "model-a", quota)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMeter(v)
	for i := 0; i < n; i++ {
		if err := m.Charge(uint64(10 * i)); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// parityCase is one settlement and the verdict it must get. build returns a
// fresh settler, the reports it must accept first, and the report under
// test; it runs once per transport, so both start from the same state.
type parityCase struct {
	name  string
	want  Receipt
	build func(t *testing.T) (s *Settler, accepted []AttestedReport, under AttestedReport)
}

func plainCase(name, reason string, tamper func(t *testing.T, m *Meter, r *Report) (accepted []Report)) parityCase {
	return parityCase{name: name, want: Receipt{Reason: reason}, build: func(t *testing.T) (*Settler, []AttestedReport, AttestedReport) {
		is := issuer(t)
		m := chargedMeter(t, is, "dev-1", 8, 5)
		r := m.BuildReport()
		var accepted []AttestedReport
		for _, a := range tamper(t, m, &r) {
			accepted = append(accepted, AttestedReport{Report: a})
		}
		return NewSettler(is), accepted, AttestedReport{Report: r}
	}}
}

func attestedCase(name, reason string, tamper func(r *AttestedReport)) parityCase {
	return parityCase{name: name, want: Receipt{Reason: reason}, build: func(t *testing.T) (*Settler, []AttestedReport, AttestedReport) {
		m, s, _ := attestedFixture(t, 2)
		for i := 0; i < 16; i++ {
			if err := m.Charge(uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := m.BuildAttestedReport()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Attestations) < 2 || len(rep.Attestations) == len(rep.Entries) {
			t.Fatalf("fixture sampled %d of %d charges", len(rep.Attestations), len(rep.Entries))
		}
		tamper(&rep)
		return s, nil, rep
	}}
}

// unsampled returns a charge of r that its sample left out.
func unsampled(r *AttestedReport) uint64 {
	for _, e := range r.Entries {
		if !slices.ContainsFunc(r.Attestations, func(a Attestation) bool { return a.Seq == e.Seq }) {
			return e.Seq
		}
	}
	panic("every charge is sampled")
}

// parityCases restates every rejection metering_test.go and attest_test.go
// exercise in process, plus the honest shapes.
func parityCases() []parityCase {
	cases := []parityCase{
		plainCase("forged voucher", ReasonBadVoucher, func(t *testing.T, m *Meter, r *Report) []Report {
			r.Voucher.Queries = 100
			return nil
		}),
		plainCase("replay of a settled report", ReasonRollback, func(t *testing.T, m *Meter, r *Report) []Report {
			return []Report{*r}
		}),
		plainCase("rollback to a reset meter", ReasonRollback, func(t *testing.T, m *Meter, r *Report) []Report {
			settled := *r
			fresh := NewMeter(r.Voucher)
			fresh.Charge(0) //nolint:errcheck
			*r = fresh.BuildReport()
			return []Report{settled}
		}),
		plainCase("gap before the first entry", ReasonGap, func(t *testing.T, m *Meter, r *Report) []Report {
			r.Entries, r.FromSeq = r.Entries[2:], 3
			return nil
		}),
		plainCase("gap between entries", ReasonGap, func(t *testing.T, m *Meter, r *Report) []Report {
			r.Entries = slices.Delete(slices.Clone(r.Entries), 2, 3)
			return nil
		}),
		plainCase("broken chain: forged tick", ReasonBadChain, func(t *testing.T, m *Meter, r *Report) []Report {
			r.Entries[2].Tick = 999
			return nil
		}),
		plainCase("broken chain: forged head", ReasonBadChain, func(t *testing.T, m *Meter, r *Report) []Report {
			r.Entries[len(r.Entries)-1].Hash[0] ^= 1
			return nil
		}),
		plainCase("inflated usage", ReasonBadUsage, func(t *testing.T, m *Meter, r *Report) []Report {
			r.Used += 5
			return nil
		}),
		plainCase("dropped entries", ReasonBadUsage, func(t *testing.T, m *Meter, r *Report) []Report {
			r.Entries = r.Entries[:3]
			return nil
		}),
		plainCase("over quota", ReasonOverQuota, func(t *testing.T, m *Meter, r *Report) []Report {
			// The device ignored its quota of 8 and kept extending the chain.
			head := r.Entries[len(r.Entries)-1].Hash
			for r.Used < 9 {
				e := NextEntry(head, r.Used+1, 99, r.Voucher.ID)
				r.Entries, r.Used, head = append(r.Entries, e), r.Used+1, e.Hash
			}
			return nil
		}),
		attestedCase("missing proof", ReasonProofMissing, func(r *AttestedReport) {
			r.Attestations = r.Attestations[:len(r.Attestations)-1]
		}),
		attestedCase("no proofs at all", ReasonProofMissing, func(r *AttestedReport) {
			r.Attestations = nil
		}),
		attestedCase("surplus proof for an unsampled charge", ReasonProofInvalid, func(r *AttestedReport) {
			extra := r.Attestations[0]
			extra.Seq = unsampled(r)
			r.Attestations = append(r.Attestations, extra)
		}),
		attestedCase("proof for a charge outside the report", ReasonProofInvalid, func(r *AttestedReport) {
			r.Attestations[0].Seq = r.Used + 7
		}),
		attestedCase("duplicate proof", ReasonProofInvalid, func(r *AttestedReport) {
			r.Attestations[len(r.Attestations)-1] = r.Attestations[0]
		}),
		attestedCase("replayed proof", ReasonProofInvalid, func(r *AttestedReport) {
			// Each keeps its charge and carries the other's proof.
			a, b := &r.Attestations[0], &r.Attestations[1]
			a.Proof, b.Proof = b.Proof, a.Proof
		}),
		attestedCase("relabelled proof", ReasonProofInvalid, func(r *AttestedReport) {
			r.Attestations[0].ModelID = "model-v2"
		}),
	}
	honest := plainCase("honest", "", func(t *testing.T, m *Meter, r *Report) []Report { return nil })
	honest.want = Receipt{OK: true, AckSeq: 5}
	second := plainCase("honest second window", "", func(t *testing.T, m *Meter, r *Report) []Report {
		first := *r
		m.Acknowledge(5)
		m.Charge(77) //nolint:errcheck
		*r = m.BuildReport()
		return []Report{first}
	})
	second.want = Receipt{OK: true, AckSeq: 6}
	attested := attestedCase("honest with proofs", "", func(r *AttestedReport) {})
	attested.want = Receipt{OK: true, AckSeq: 16}
	return append(cases, honest, second, attested)
}

// TestSettlementParity sends every case once in process and once over TCP.
// The frame drops what the settler can recompute, so this is the check that
// nothing a verdict depends on went with it: both transports give the same
// receipt, and leave the same verdict and usage on the settler.
func TestSettlementParity(t *testing.T) {
	transports := []struct {
		name   string
		settle func(t *testing.T, s *Settler) func(AttestedReport) Receipt
	}{
		{"in process", func(t *testing.T, s *Settler) func(AttestedReport) Receipt { return s.SettleAttested }},
		{"over TCP", func(t *testing.T, s *Settler) func(AttestedReport) Receipt {
			srv := listen(t, s, ioTimeout)
			return func(r AttestedReport) Receipt {
				rc, err := SettleAttestedOverTCP(srv.Addr(), r)
				if err != nil {
					t.Fatal(err)
				}
				return rc
			}
		}},
	}
	for _, c := range parityCases() {
		t.Run(c.name, func(t *testing.T) {
			var receipts []Receipt
			for _, tr := range transports {
				s, accepted, under := c.build(t)
				settle := tr.settle(t, s)
				for i, r := range accepted {
					if rc := settle(r); !rc.OK {
						t.Fatalf("%s: setup report %d rejected: %s", tr.name, i, rc.Reason)
					}
				}
				usedBefore, _ := s.SettledUsage(under.Voucher.ID)
				got := settle(under)
				receipts = append(receipts, got)
				// How many proofs the sample held is the fixture's business;
				// that both transports checked as many is asserted below.
				got.ProofsChecked = 0
				if got != c.want {
					t.Errorf("%s: receipt %+v, want %+v", tr.name, got, c.want)
				}
				last, ok := s.LastReceipt(under.Voucher.ID)
				if authenticated := c.want.Reason != ReasonBadVoucher; ok != authenticated {
					t.Errorf("%s: a verdict on record is %v, want %v", tr.name, ok, authenticated)
				} else if ok && last.Reason != c.want.Reason {
					t.Errorf("%s: verdict on record %+v, want %+v", tr.name, last, c.want)
				}
				if used, _ := s.SettledUsage(under.Voucher.ID); !c.want.OK && used != usedBefore {
					t.Errorf("%s: a rejected report moved settled usage %d → %d", tr.name, usedBefore, used)
				}
			}
			if receipts[0] != receipts[1] {
				t.Errorf("in process %+v, over TCP %+v", receipts[0], receipts[1])
			}
		})
	}
}

// hungUp reports whether the server closes conn within two seconds,
// discarding anything it sends first.
func hungUp(conn net.Conn) bool {
	conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	_, err := io.Copy(io.Discard, conn)
	return !errors.Is(err, os.ErrDeadlineExceeded)
}

// readReceipt reads the next receipt frame off conn.
func readReceipt(t *testing.T, conn net.Conn) Receipt {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	payload, err := readFrame(conn)
	if err != nil {
		t.Fatalf("read receipt: %v", err)
	}
	rc, err := decodeReceipt(payload)
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

// TestServerSurvivesHostileClients runs the abuse table against a live
// listener. After each row the server has hung up on the abuser (within its
// deadline, shortened here), has moved no state for it, still settles an
// honest device, and Close returns while the abuser's socket is still open:
// no handler goroutine is left waiting on it.
func TestServerSurvivesHostileClients(t *testing.T) {
	const deadline = 100 * time.Millisecond
	// frames returns what a row sends: the stranger's first two windows as
	// report frames (three charges, then two more), and where the first
	// one's entry count sits: two bytes from the end of the same report with
	// no entries, whose last two bytes are its two zero counts.
	frames := func(t *testing.T, is *Issuer) (first, second []byte, countAt int) {
		m := chargedMeter(t, is, "stranger", 50, 3)
		r1, _ := m.BuildAttestedReport()
		m.Acknowledge(3)
		m.Charge(40) //nolint:errcheck
		m.Charge(50) //nolint:errcheck
		r2, _ := m.BuildAttestedReport()
		empty := r1
		empty.Entries = nil
		encode := func(r AttestedReport) []byte {
			frame, err := encodeReport(&r)
			if err != nil {
				t.Fatal(err)
			}
			return frame
		}
		first, second, countAt = encode(r1), encode(r2), len(encode(empty))-2
		if first[countAt] != 3 {
			t.Fatal("the entry count is not where the table expects it")
		}
		return first, second, countAt
	}
	reframe := func(payload []byte) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}
	send := func(t *testing.T, conn net.Conn, b []byte) {
		t.Helper()
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	rows := []struct {
		name string
		// settled is the stranger's usage the row leaves on the settler.
		settled uint64
		abuse   func(t *testing.T, conn *net.TCPConn, first, second []byte, countAt int)
	}{
		{"slow loris: one byte, then silence", 0, func(t *testing.T, conn *net.TCPConn, first, _ []byte, _ int) {
			send(t, conn, first[:1])
		}},
		{"length prefix over the cap", 0, func(t *testing.T, conn *net.TCPConn, first, _ []byte, _ int) {
			send(t, conn, binary.LittleEndian.AppendUint32(nil, maxFrameBytes+1))
		}},
		{"length the connection never backs", 0, func(t *testing.T, conn *net.TCPConn, first, _ []byte, _ int) {
			send(t, conn, first[:len(first)-1])
		}},
		{"half-closed inside a frame", 0, func(t *testing.T, conn *net.TCPConn, first, _ []byte, _ int) {
			send(t, conn, first[:len(first)/2])
			conn.CloseWrite() //nolint:errcheck
		}},
		{"half-closed behind a whole frame", 3, func(t *testing.T, conn *net.TCPConn, first, _ []byte, _ int) {
			send(t, conn, first)
			conn.CloseWrite() //nolint:errcheck
			if rc := readReceipt(t, conn); !rc.OK || rc.AckSeq != 3 {
				t.Fatalf("receipt %+v", rc)
			}
		}},
		{"garbage after a valid frame", 3, func(t *testing.T, conn *net.TCPConn, first, _ []byte, _ int) {
			send(t, conn, append(slices.Clone(first), "GET / HTTP/1.1\r\n\r\n"...))
			if rc := readReceipt(t, conn); !rc.OK || rc.AckSeq != 3 {
				t.Fatalf("receipt %+v", rc)
			}
		}},
		{"entry count the tail cannot back", 0, func(t *testing.T, conn *net.TCPConn, first, _ []byte, countAt int) {
			forged := slices.Clone(first)
			forged[countAt] = 0x7f
			send(t, conn, forged)
		}},
		{"attestation count the tail cannot back", 0, func(t *testing.T, conn *net.TCPConn, first, _ []byte, _ int) {
			forged := slices.Clone(first)
			forged[len(forged)-1] = 5
			send(t, conn, forged)
		}},
		{"padded varint", 0, func(t *testing.T, conn *net.TCPConn, first, _ []byte, countAt int) {
			// The entry count 3 as the two bytes 0x83 0x00.
			padded := slices.Concat(first[4:countAt], []byte{0x83, 0x00}, first[countAt+1:])
			send(t, conn, reframe(padded))
		}},
		{"a second report on the same connection", 5, func(t *testing.T, conn *net.TCPConn, first, second []byte, _ int) {
			send(t, conn, first)
			if rc := readReceipt(t, conn); !rc.OK || rc.AckSeq != 3 {
				t.Fatalf("first receipt %+v", rc)
			}
			send(t, conn, second)
			if rc := readReceipt(t, conn); !rc.OK || rc.AckSeq != 5 {
				t.Fatalf("second receipt %+v", rc)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			is := issuer(t)
			settler := NewSettler(is)
			// Not listen: the row ends on its own Close.
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := serve(l, settler, deadline)
			first, second, countAt := frames(t, is)

			c, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			row.abuse(t, c.(*net.TCPConn), first, second, countAt)
			if !hungUp(c) {
				t.Fatal("the server still holds the connection two seconds on")
			}
			if used, _ := settler.SettledUsage("v-stranger-1"); used != row.settled {
				t.Fatalf("the row left usage %d on the settler, want %d", used, row.settled)
			}
			if rc, ok := settler.LastReceipt("v-stranger-1"); ok && !rc.OK {
				t.Fatalf("the row left a rejection on the settler: %+v", rc)
			}

			honest := chargedMeter(t, is, "dev-1", 50, 20)
			if err := MustSettle(srv.Addr(), honest); err != nil {
				t.Fatalf("honest settlement after the abuse: %v", err)
			}
			done := make(chan error, 1)
			go func() { done <- srv.Close() }()
			select {
			case <-done:
			case <-time.After(time.Second):
				t.Fatal("Close waits on a handler the abuser still holds")
			}
		})
	}
}

// TestCloseInterruptsIdleClients: a client that connects and sends nothing
// holds a handler waiting for its first frame. Close interrupts those waits
// instead of sitting out the read deadline.
func TestCloseInterruptsIdleClients(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(l, NewSettler(issuer(t)), 5*time.Second)
	const idle = 4
	var clients []net.Conn
	for range idle {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	// Wait until a handler holds each connection.
	for waiting := false; !waiting; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		waiting = len(srv.conns) == idle
		srv.mu.Unlock()
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("Close took %v with %d idle clients connected", took, idle)
	}
	for i, c := range clients {
		if !hungUp(c) {
			t.Fatalf("idle client %d's connection is still open after Close", i)
		}
	}
}

// The cap is checked on the prefix alone: a frame over it fails as over the
// cap, not as cut short, so nothing was allocated or read for its body.
func TestFrameCapPrecedesTheBody(t *testing.T) {
	_, err := readFrame(strings.NewReader("\x01\x00\x40\x00"))
	if err == nil || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		t.Fatalf("4 MiB + 1 frame with no body: %v, want the cap's error", err)
	}
	if _, err := readFrame(strings.NewReader("\x00\x00\x40\x00")); !errors.Is(err, io.EOF) {
		t.Fatalf("4 MiB frame with no body: %v, want EOF", err)
	}
	big := chargedMeter(t, issuer(t), "dev-1", 1<<40, 0).BuildReport()
	big.Voucher.ID = strings.Repeat("x", maxFrameBytes)
	if _, err := SettleOverTCP("127.0.0.1:0", big); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("a report over the cap: %v, want the cap's error before any dial", err)
	}
}

// TestUnauthenticatedReportCannotFrameADevice is the §VI case: anyone who
// can reach the port and has seen a voucher ID sends a report under it with
// a signature that does not verify. It is refused, and it is evidence of
// nothing about the voucher's holder: the honest verdict stands, and
// reports under made-up IDs grow nothing.
func TestUnauthenticatedReportCannotFrameADevice(t *testing.T) {
	is := issuer(t)
	settler := NewSettler(is)
	srv := listen(t, settler, ioTimeout)
	m := chargedMeter(t, is, "dev-1", 50, 10)
	honest := m.BuildReport()
	if err := MustSettle(srv.Addr(), m); err != nil {
		t.Fatal(err)
	}

	forged := honest
	forged.Voucher.Sig = slices.Clone(honest.Voucher.Sig)
	forged.Voucher.Sig[0] ^= 1
	for i := 0; i < 40; i++ {
		if i > 0 {
			forged.Voucher.ID = fmt.Sprintf("v-made-up-%d", i)
		}
		rc, err := SettleOverTCP(srv.Addr(), forged)
		if err != nil {
			t.Fatal(err)
		}
		if want := (Receipt{Reason: ReasonBadVoucher}); rc != want {
			t.Fatalf("forged report %d: %+v, want %+v", i, rc, want)
		}
	}
	if rc, ok := settler.LastReceipt(honest.Voucher.ID); !ok || !rc.OK || rc.AckSeq != 10 {
		t.Fatalf("the honest verdict became %+v", rc)
	}
	if _, ok := settler.LastReceipt("v-made-up-7"); ok {
		t.Fatal("a made-up voucher ID has a verdict on record")
	}
	settler.mu.Lock()
	vouchers, verdicts := len(settler.state), len(settler.lastReceipt)
	settler.mu.Unlock()
	if vouchers != 1 || verdicts != 1 {
		t.Fatalf("40 forged reports left %d vouchers, %d verdicts; want 1, 1", vouchers, verdicts)
	}
}

// TestSettleHashesTheChainOnce pins the settlement's cost shape at the
// benchmark's report: what Settle allocates does not depend on how many
// entries the report has (no per-entry map, no per-entry hash state), in
// process and for a decoded frame alike.
func TestSettleHashesTheChainOnce(t *testing.T) {
	is := issuer(t)
	settler := NewSettler(is)
	allocs := func(device string, charges int, framed bool) float64 {
		const runs = 5
		var windows []AttestedReport
		m := chargedMeter(t, is, device, 1<<40, 0)
		for w := 0; w <= runs; w++ {
			for i := 0; i < charges; i++ {
				m.Charge(uint64(i)) //nolint:errcheck
			}
			r, _ := m.BuildAttestedReport()
			m.Acknowledge(r.Used)
			if framed {
				// What the decoder hands over: only the last hash.
				for i := range r.Entries[:len(r.Entries)-1] {
					r.Entries[i].Hash = [32]byte{}
				}
			}
			windows = append(windows, r)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if rc := settler.settle(windows[next], framed); !rc.OK {
				t.Fatalf("window %d rejected: %s", next, rc.Reason)
			}
			next++
		})
	}
	for _, framed := range []bool{false, true} {
		small, large := allocs(fmt.Sprintf("small-%v", framed), 16, framed), allocs(fmt.Sprintf("large-%v", framed), 2048, framed)
		if small != large || large > 16 {
			t.Errorf("framed=%v: %v allocations for 16 entries, %v for 2048; want the same handful", framed, small, large)
		}
	}
}
