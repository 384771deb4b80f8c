package ipprot

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// TestStaticWatermarkGoldens pins what EmbedStatic writes and ExtractStatic
// reads back against testdata/watermark.golden, recorded at commit 2fffa04 —
// when the step budget, learning rate, fidelity penalty, margin and carrier
// layer were still StaticWMConfig fields. Each row holds the recovered bits
// and a digest of the marked network's exact weight bits, for two victims
// and two capacities; the mark rides the first dense layer ("layer0").
func TestStaticWatermarkGoldens(t *testing.T) {
	data, err := os.ReadFile("testdata/watermark.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	var got []string
	for _, seed := range []uint64{1, 2} {
		for _, capacity := range []int{16, 64} {
			net, _ := victimFixture(t, seed)
			owner := fmt.Sprintf("owner-%d", seed)
			cfg := DefaultStaticWMConfig()
			row := fmt.Sprintf("seed%d/cap%d/layer0:", seed, capacity)
			if err := EmbedStatic(net, owner, KeyedBits(owner, capacity), cfg); err != nil {
				row += " embed: " + err.Error()
			}
			bits, err := ExtractStatic(net, owner, capacity, cfg)
			if err != nil {
				t.Fatal(err)
			}
			row += " bits="
			for _, b := range bits {
				if b {
					row += "1"
				} else {
					row += "0"
				}
			}
			h := sha256.New()
			var b [4]byte
			for _, v := range net.FlatParams() {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				h.Write(b[:])
			}
			got = append(got, fmt.Sprintf("%s weights=%x", row, h.Sum(nil)))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("testdata/watermark.golden has %d rows, the matrix %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
