package codec

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRoundTripScalar(t *testing.T) {
	b, err := Encode(42)
	if err != nil {
		t.Fatal(err)
	}
	var out int
	if err := Decode(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != 42 {
		t.Fatalf("got %d", out)
	}
}

func TestRoundTripStruct(t *testing.T) {
	type point struct{ X, Y float64 }
	in := point{1.5, -2.25}
	b, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeAs[point](b)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("got %+v, want %+v", out, in)
	}
}

func TestRawFastPath(t *testing.T) {
	in := []byte{0, 1, 2, 255}
	b, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != tagRaw {
		t.Fatalf("[]byte did not take raw path, tag=0x%02x", b[0])
	}
	out, err := DecodeAs[[]byte](b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, in) {
		t.Fatalf("raw round trip mismatch: %v vs %v", out, in)
	}
}

func BenchmarkEncodeRaw1MiB(b *testing.B) {
	var v any = make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	for b.Loop() {
		benchSink = MustEncode(v)
	}
}

func TestRawIntoWrongTypeFails(t *testing.T) {
	b := MustEncode([]byte("hi"))
	var s string
	if err := Decode(b, &s); err == nil {
		t.Fatal("decoding raw payload into *string should fail")
	}
}

func TestNil(t *testing.T) {
	b, err := Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out int = 7
	if err := Decode(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != 7 {
		t.Fatal("null payload should leave destination untouched")
	}
}

func TestDecodeErrors(t *testing.T) {
	var out int
	if err := Decode(nil, &out); err == nil {
		t.Fatal("empty payload accepted")
	}
	if err := Decode([]byte{0x7f, 1, 2}, &out); err == nil {
		t.Fatal("unknown tag accepted")
	}
	// Type mismatch inside gob.
	b := MustEncode("a string")
	if err := Decode(b, &out); err == nil {
		t.Fatal("gob type mismatch accepted")
	}
}

// Property: Encode/Decode round-trips arbitrary strings, int64s, and byte
// slices without corruption.
func TestQuickRoundTrip(t *testing.T) {
	fStr := func(s string) bool {
		b, err := Encode(s)
		if err != nil {
			return false
		}
		out, err := DecodeAs[string](b)
		return err == nil && out == s
	}
	fInt := func(x int64) bool {
		b, err := Encode(x)
		if err != nil {
			return false
		}
		out, err := DecodeAs[int64](b)
		return err == nil && out == x
	}
	fBytes := func(p []byte) bool {
		b, err := Encode(p)
		if err != nil {
			return false
		}
		out, err := DecodeAs[[]byte](b)
		return err == nil && bytes.Equal(out, p)
	}
	for _, f := range []any{fStr, fInt, fBytes} {
		if err := quick.Check(f, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMustEncodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustEncode of unserializable value did not panic")
		}
	}()
	MustEncode(make(chan int)) // gob cannot encode channels
}
