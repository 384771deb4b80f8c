// Package wiretest holds the strictness check that the tests of every
// hand-rolled wire format run over a known-good encoding.
package wiretest

import (
	"bytes"
	"testing"
)

// Canonical reports whether reencode — decode the bytes, then encode the
// decoded value again — accepts data, and fails the test if it does and
// the bytes that come back are not data. It is the whole body of a decoder
// fuzz target: no panic, and accept ⇒ the input was the one encoding.
func Canonical(t testing.TB, data []byte, reencode func([]byte) ([]byte, error)) bool {
	t.Helper()
	again, err := reencode(data)
	if err == nil && !bytes.Equal(again, data) {
		t.Errorf("accepted input is not canonical:\nin  %x\nout %x", data, again)
	}
	return err == nil
}

// Strict asserts a decoder's rejection contract around one valid encoding:
// enc is accepted and canonical, and every strict prefix of it, and enc
// followed by one more byte, is rejected.
func Strict(t testing.TB, enc []byte, reencode func([]byte) ([]byte, error)) {
	t.Helper()
	if !Canonical(t, enc, reencode) {
		t.Fatal("valid encoding rejected")
	}
	for cut := range enc {
		if Canonical(t, enc[:cut:cut], reencode) {
			t.Errorf("prefix of %d of %d bytes accepted", cut, len(enc))
		}
	}
	if Canonical(t, append(enc[:len(enc):len(enc)], 0), reencode) {
		t.Error("encoding followed by one trailing byte accepted")
	}
}
