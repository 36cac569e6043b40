package codec

import (
	"encoding"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
)

// The value form, for plain-data application values: what tasks hand to one
// another. A fresh gob stream per value recompiles the type's engine and
// carries its descriptor every time — 40 % of the CPU of the paper's RL
// workload went there. Here a plan is compiled once per reflect.Type per
// process and cached, and the payload is
//
//	tagVal | 8-byte fingerprint of the shape | positional body
//
// Plain data is bools, ints, uints, floats, strings, and slices, arrays and
// structs of exported fields of those. Anything else — maps, pointers,
// interfaces, unexported fields, recursive types, a type with its own gob or
// binary marshaler anywhere inside — has no plan, and Encode writes gob as
// it always did.
//
// The shape is structural: kinds, array lengths, struct field names in
// order. Named types count as their underlying type and int/uint as their
// 64-bit kinds, so sim.Obs is []float64 and 32- and 64-bit peers agree. A
// positional body cannot tell a []float64 from an int, so Decode compares
// the payload's fingerprint with the target's before it reads a byte of
// body. There is no tolerance for a field added or removed: a value lives for
// one task graph between processes of one build. What is journaled stays in a
// form that evolves (DESIGN.md "Payload forms").
//
// Body, by kind: bool one byte; ints zigzag varints, uints uvarints; floats
// their IEEE bits little-endian, so NaN payloads and -0 survive; a string its
// length then bytes; an array its elements; a struct its fields in order; a
// slice its length plus one, then elements — zero is the nil slice, which
// stays distinct from the empty one. Elements of byte slices and arrays are
// single bytes.

// ErrShapeMismatch is what Decode wraps when a value payload's shape is not
// the target's.
var ErrShapeMismatch = errors.New("value shape mismatch")

const fingerprintLen = 8

// valuePlan encodes and decodes every value of one type.
type valuePlan struct {
	shape string
	fp    uint64
	// min is the least number of bytes one value takes on the wire: what a
	// slice's length prefix is checked against before anything is allocated.
	min int
	enc func(b []byte, v reflect.Value) []byte
	// dec fills v, which is settable; errors latch in r.
	dec func(r *binReader, v reflect.Value)
}

var (
	// plans maps a reflect.Type to its *valuePlan, nil for a type with none.
	plans sync.Map
	// shapes maps a fingerprint to its shape, so that a mismatch can name
	// the payload's shape when this process has compiled it too.
	shapes sync.Map
)

func fingerprint(shape string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(shape))
	return h.Sum64()
}

// planFor returns t's plan, compiling it on first use, or nil when t is not
// plain data.
func planFor(t reflect.Type) *valuePlan {
	if p, ok := plans.Load(t); ok {
		return p.(*valuePlan)
	}
	return compile(t, map[reflect.Type]bool{})
}

// compile builds and caches the plan of t; open holds the types whose
// compilation this one is nested in. Meeting one of them again means t is
// recursive, and so is everything between the two: all get no plan, which is
// also what a compilation starting anywhere on the cycle would find.
func compile(t reflect.Type, open map[reflect.Type]bool) *valuePlan {
	if p, ok := plans.Load(t); ok {
		return p.(*valuePlan)
	}
	if open[t] {
		return nil
	}
	open[t] = true
	p := build(t, open)
	delete(open, t)
	if p != nil {
		p.fp = fingerprint(p.shape)
		shapes.Store(p.fp, p.shape)
	}
	// Two goroutines may compile t at once; every caller uses the one stored.
	cached, _ := plans.LoadOrStore(t, p)
	return cached.(*valuePlan)
}

var marshalers = [...]reflect.Type{
	reflect.TypeFor[gob.GobEncoder](),
	reflect.TypeFor[gob.GobDecoder](),
	reflect.TypeFor[encoding.BinaryMarshaler](),
	reflect.TypeFor[encoding.BinaryUnmarshaler](),
}

// marshalsItself reports whether gob would hand t to its own methods.
func marshalsItself(t reflect.Type) bool {
	pt := reflect.PointerTo(t)
	for _, m := range marshalers {
		if t.Implements(m) || pt.Implements(m) {
			return true
		}
	}
	return false
}

func build(t reflect.Type, open map[reflect.Type]bool) *valuePlan {
	if marshalsItself(t) {
		return nil
	}
	switch t.Kind() {
	case reflect.Bool:
		return &valuePlan{shape: "bool", min: 1,
			enc: func(b []byte, v reflect.Value) []byte { return appendBool(b, v.Bool()) },
			dec: func(r *binReader, v reflect.Value) { v.SetBool(r.bool()) }}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return &valuePlan{shape: "i" + bits(t), min: 1,
			enc: func(b []byte, v reflect.Value) []byte { return binary.AppendVarint(b, v.Int()) },
			dec: func(r *binReader, v reflect.Value) {
				x := r.varint()
				if v.OverflowInt(x) {
					r.fail()
				}
				v.SetInt(x)
			}}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return &valuePlan{shape: "u" + bits(t), min: 1,
			enc: func(b []byte, v reflect.Value) []byte { return binary.AppendUvarint(b, v.Uint()) },
			dec: func(r *binReader, v reflect.Value) {
				x := r.uvarint()
				if v.OverflowUint(x) {
					r.fail()
				}
				v.SetUint(x)
			}}
	case reflect.Float32:
		return &valuePlan{shape: "f32", min: 4,
			enc: func(b []byte, v reflect.Value) []byte {
				return binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v.Float())))
			},
			dec: func(r *binReader, v reflect.Value) { v.SetFloat(float64(math.Float32frombits(r.u32()))) }}
	case reflect.Float64:
		return &valuePlan{shape: "f64", min: 8,
			enc: func(b []byte, v reflect.Value) []byte { return appendF64(b, v.Float()) },
			dec: func(r *binReader, v reflect.Value) { v.SetFloat(r.f64()) }}
	case reflect.String:
		return &valuePlan{shape: "str", min: 1,
			enc: func(b []byte, v reflect.Value) []byte { return appendString(b, v.String()) },
			dec: func(r *binReader, v reflect.Value) { v.SetString(r.string()) }}
	case reflect.Slice:
		return buildSlice(t, open)
	case reflect.Array:
		return buildArray(t, open)
	case reflect.Struct:
		return buildStruct(t, open)
	}
	return nil
}

// bits is the width that names an integer kind in a shape: int and uint as
// 64, whatever this platform makes them.
func bits(t reflect.Type) string {
	if k := t.Kind(); k == reflect.Int || k == reflect.Uint {
		return "64"
	}
	return strconv.Itoa(t.Bits())
}

func buildStruct(t reflect.Type, open map[reflect.Type]bool) *valuePlan {
	n := t.NumField()
	if n == 0 {
		return nil // gob refuses it, and so it should keep doing
	}
	fields := make([]*valuePlan, n)
	var shape strings.Builder
	min := 0
	for i := range fields {
		f := t.Field(i)
		if !f.IsExported() {
			return nil // gob skips it silently; a positional form must not guess
		}
		if fields[i] = compile(f.Type, open); fields[i] == nil {
			return nil
		}
		sep := byte(';')
		if i == 0 {
			sep = '{'
		}
		shape.WriteByte(sep)
		shape.WriteString(f.Name)
		shape.WriteByte(' ')
		shape.WriteString(fields[i].shape)
		min += fields[i].min
	}
	shape.WriteByte('}')
	return &valuePlan{shape: shape.String(), min: min,
		enc: func(b []byte, v reflect.Value) []byte {
			for i, f := range fields {
				b = f.enc(b, v.Field(i))
			}
			return b
		},
		dec: func(r *binReader, v reflect.Value) {
			for i, f := range fields {
				f.dec(r, v.Field(i))
			}
		}}
}

func buildArray(t reflect.Type, open map[reflect.Type]bool) *valuePlan {
	elem, n := compile(t.Elem(), open), t.Len()
	if elem == nil || n == 0 {
		return nil // an empty array takes no bytes, so a slice of them has no bound
	}
	shape := "[" + strconv.Itoa(n) + "]" + elem.shape
	if t.Elem().Kind() == reflect.Uint8 {
		return &valuePlan{shape: shape, min: n,
			enc: func(b []byte, v reflect.Value) []byte {
				if v.CanAddr() {
					return append(b, v.Bytes()...)
				}
				for i := 0; i < n; i++ {
					b = append(b, byte(v.Index(i).Uint()))
				}
				return b
			},
			dec: func(r *binReader, v reflect.Value) { copy(v.Bytes(), r.take(n)) }}
	}
	return &valuePlan{shape: shape, min: n * elem.min,
		enc: func(b []byte, v reflect.Value) []byte {
			for i := 0; i < n; i++ {
				b = elem.enc(b, v.Index(i))
			}
			return b
		},
		dec: func(r *binReader, v reflect.Value) {
			for i := 0; i < n; i++ {
				elem.dec(r, v.Index(i))
			}
		}}
}

func buildSlice(t reflect.Type, open map[reflect.Type]bool) *valuePlan {
	elem := compile(t.Elem(), open)
	if elem == nil {
		return nil
	}
	p := &valuePlan{shape: "[]" + elem.shape, min: 1}
	if t.Elem().Kind() == reflect.Uint8 {
		p.enc = func(b []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(b, 0)
			}
			return append(binary.AppendUvarint(b, uint64(v.Len())+1), v.Bytes()...)
		}
		p.dec = func(r *binReader, v reflect.Value) {
			n, null := r.sliceLen(1)
			if null {
				v.SetZero()
				return
			}
			v.SetBytes(clone(r.take(n)))
		}
		return p
	}
	p.enc = func(b []byte, v reflect.Value) []byte {
		if v.IsNil() {
			return append(b, 0)
		}
		n := v.Len()
		b = binary.AppendUvarint(b, uint64(n)+1)
		for i := 0; i < n; i++ {
			b = elem.enc(b, v.Index(i))
		}
		return b
	}
	p.dec = func(r *binReader, v reflect.Value) {
		n, null := r.sliceLen(elem.min)
		v.SetZero()
		if null {
			return
		}
		if n == 0 {
			v.Set(reflect.MakeSlice(t, 0, 0))
			return
		}
		// Grow from nil is one allocation; MakeSlice and Set are two.
		v.Grow(n)
		v.SetLen(n)
		for i := 0; i < n; i++ {
			elem.dec(r, v.Index(i))
		}
	}
	return p
}

func appendF64(b []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
}

func (r *binReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *binReader) f64() float64 {
	if b := r.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// sliceLen reads a slice's length prefix — zero for nil, else length plus
// one — and bounds the length by the bytes remaining, as count does.
func (r *binReader) sliceLen(perElem int) (n int, null bool) {
	c := r.uvarint()
	if c == 0 {
		return 0, true
	}
	return r.bounded(c-1, perElem), false
}

// encodeValue writes v in the value form; ok=false means v's type is not
// plain data and rides gob.
func encodeValue(v any) ([]byte, bool) {
	p := planFor(reflect.TypeOf(v))
	if p == nil {
		return nil, false
	}
	bp := scratch.Get().(*[]byte)
	b := append((*bp)[:0], tagVal)
	b = binary.LittleEndian.AppendUint64(b, p.fp)
	b = p.enc(b, reflect.ValueOf(v))
	out := clone(b)
	if cap(b) <= maxScratch {
		*bp = b
		scratch.Put(bp)
	}
	return out, true
}

// scratch holds the buffers values are encoded into before the payload is
// copied out at its exact size: one allocation per Encode however many
// times the body outgrew the buffer. A buffer grown past maxScratch is
// dropped, not pooled.
var scratch = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

const maxScratch = 64 << 10

// decodeValue reads a value payload (data excludes the tag byte) into out.
// On a shape mismatch out is untouched; on a truncated or corrupt body it is
// reset to its zero value, never left half filled.
func decodeValue(data []byte, out any) error {
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("codec: decode into %T: not a non-nil pointer", out)
	}
	if len(data) < fingerprintLen {
		return fmt.Errorf("codec: decode into %T: truncated value payload", out)
	}
	fp := binary.LittleEndian.Uint64(data)
	p := planFor(rv.Type().Elem())
	if p == nil || p.fp != fp {
		want := "not plain data"
		if p != nil {
			want = p.shape
		}
		got := fmt.Sprintf("fingerprint %016x", fp)
		if s, ok := shapes.Load(fp); ok {
			got = s.(string)
		}
		return fmt.Errorf("codec: decode into %T: %w: payload is %s, target is %s", out, ErrShapeMismatch, got, want)
	}
	r := binReader{buf: data[fingerprintLen:]}
	v := rv.Elem()
	p.dec(&r, v)
	if r.err == nil && r.pos != len(r.buf) {
		r.err = fmt.Errorf("%d bytes after the value", len(r.buf)-r.pos)
	}
	if r.err != nil {
		v.SetZero()
		return fmt.Errorf("codec: decode into %T: %w", out, r.err)
	}
	return nil
}
