// Package codectest lets the packages whose types cross task boundaries
// assert, in their own tests, that those types are plain data to codec —
// without codec importing them.
package codectest

import (
	"reflect"
	"testing"

	"repro/internal/codec"
)

// PlainData fails t unless every value encodes in codec's value form — not
// through a gob stream per value — and decodes back equal.
func PlainData(t *testing.T, values ...any) {
	t.Helper()
	valueForm := codec.MustEncode(0)[0] // an int is plain data; the tags are codec's to define
	for _, v := range values {
		b, err := codec.Encode(v)
		if err != nil {
			t.Errorf("%T: %v", v, err)
			continue
		}
		if b[0] != valueForm {
			t.Errorf("%T encodes under tag 0x%02x, not the value form: a map, pointer, interface or unexported field crept in", v, b[0])
		}
		out := reflect.New(reflect.TypeOf(v))
		if err := codec.Decode(b, out.Interface()); err != nil {
			t.Errorf("%T: %v", v, err)
		} else if got := out.Elem().Interface(); !reflect.DeepEqual(got, v) {
			t.Errorf("%T: got %#v, want %#v", v, got, v)
		}
	}
}
