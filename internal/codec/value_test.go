package codec

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// Shapes like the ones the apps pass (internal/rl's carry is the deepest):
// named scalar and slice types, a Duration, nested structs, slices of
// structs, arrays.
type (
	celsius float64
	vector  []float64
	label   string

	envConfig struct {
		Seed       uint64
		ObsDim     int
		NumActions int
		StepCost   time.Duration
		Jitter     float32
	}
	envState struct {
		Cfg   envConfig
		Rng   uint64
		State []float64
		Drift []float64
		Step  int
	}
	rollout struct {
		SumGrad []float64
		Return  float64
		Steps   int
	}
	carryLike struct {
		Env    envState
		Obs    vector
		Reward float64
		Stats  rollout
		Done   bool
	}
	point struct {
		Name label
		XY   [2]float64
		Tags []string
	}
	trial struct {
		ID     int
		Points []point
		Temp   celsius
		Key    [16]byte
		Blob   []byte
		Small  int8
		Wide   uint32
	}
)

func sampleCarry() carryLike {
	f := func(n int, x float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = x * float64(i+1)
		}
		return s
	}
	return carryLike{
		Env: envState{Cfg: envConfig{Seed: 9, ObsDim: 16, NumActions: 4, StepCost: time.Millisecond, Jitter: 1.5},
			Rng: 1 << 63, State: f(16, 0.5), Drift: f(16, -0.25), Step: 3},
		Obs: f(16, 1.0/3), Reward: -1.25, Stats: rollout{SumGrad: f(64, 0.125), Return: 7, Steps: 3}, Done: true,
	}
}

func sampleTrial() trial {
	return trial{ID: -7, Temp: 36.6, Key: [16]byte{1, 2, 255}, Blob: []byte{0, 9}, Small: -128, Wide: math.MaxUint32,
		Points: []point{{Name: "a", XY: [2]float64{1, 2}, Tags: []string{"x", ""}}, {XY: [2]float64{math.Inf(-1), 3}, Tags: []string{}}}}
}

// valueSamples is one value per shape the value form must carry.
func valueSamples() []any {
	return []any{
		true, int(42), int(math.MaxInt64), int(math.MinInt64), int8(-3), int16(300), int32(-70000), int64(1) << 40,
		uint(7), uint8(255), uint16(65535), uint32(1 << 31), uint64(math.MaxUint64),
		float32(1.5), 3.14, math.Copysign(0, -1), math.Inf(1), "", "héllo",
		celsius(-40), label("named"), time.Duration(1500),
		[]float64{1.5, -2.25}, []float64{}, []float64(nil), vector{1, 2, 3}, vector(nil),
		[]int{1, -1, math.MaxInt64}, []int(nil), []int{}, []string{"a", "", "c"}, []bool{true, false},
		[]int32{5, -5}, [][]float64{{1}, nil, {}}, [3]int{1, 2, 3}, [2][]string{{"x"}, nil}, [4]byte{1, 2, 3, 4},
		envConfig{Seed: 1, StepCost: 7 * time.Millisecond}, sampleCarry(), sampleTrial(), []point{{Name: "p"}}, []point{},
	}
}

// valueRoundTrip encodes v, requires the value form, and decodes into a fresh
// value of v's type.
func valueRoundTrip(t *testing.T, v any) any {
	t.Helper()
	b, err := Encode(v)
	if err != nil {
		t.Fatalf("%T: %v", v, err)
	}
	if b[0] != tagVal {
		t.Fatalf("%T encoded under tag 0x%02x, want the value form", v, b[0])
	}
	out := reflect.New(reflect.TypeOf(v))
	if err := Decode(b, out.Interface()); err != nil {
		t.Fatalf("%T: %v", v, err)
	}
	return out.Elem().Interface()
}

func TestValueRoundTrip(t *testing.T) {
	for _, v := range valueSamples() {
		if got := valueRoundTrip(t, v); !reflect.DeepEqual(got, v) {
			t.Errorf("%T: got %#v, want %#v", v, got, v)
		}
	}
}

// TestValueFloatBits: floats cross by their bits; DeepEqual cannot see the
// difference between NaNs or between zeros.
func TestValueFloatBits(t *testing.T) {
	payloadNaN := math.Float64frombits(0x7ff8_0000_dead_beef)
	in := []float64{math.NaN(), payloadNaN, math.Copysign(0, -1), math.SmallestNonzeroFloat64}
	out := valueRoundTrip(t, in).([]float64)
	for i := range in {
		if math.Float64bits(out[i]) != math.Float64bits(in[i]) {
			t.Errorf("element %d: bits %016x, want %016x", i, math.Float64bits(out[i]), math.Float64bits(in[i]))
		}
	}
	if got := valueRoundTrip(t, payloadNaN).(float64); math.Float64bits(got) != math.Float64bits(payloadNaN) {
		t.Errorf("scalar NaN: bits %016x", math.Float64bits(got))
	}
}

func TestValueNilAndEmptySlicesStayDistinct(t *testing.T) {
	if got := valueRoundTrip(t, []int(nil)).([]int); got != nil {
		t.Errorf("nil slice came back as %#v", got)
	}
	if got := valueRoundTrip(t, []int{}).([]int); got == nil || len(got) != 0 {
		t.Errorf("empty slice came back as %#v", got)
	}
	type holder struct{ A, B []float64 }
	got := valueRoundTrip(t, holder{A: []float64{}}).(holder)
	if got.A == nil || got.B != nil {
		t.Errorf("fields came back as %#v", got)
	}
}

// TestValueOverwritesTarget: unlike gob, which leaves alone the fields a
// stream omits, a value payload replaces the whole target.
func TestValueOverwritesTarget(t *testing.T) {
	out := envState{Rng: 5, State: []float64{1, 2, 3}, Step: 9}
	if err := Decode(MustEncode(envState{Step: 1}), &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, envState{Step: 1}) {
		t.Errorf("stale fields survived: %+v", out)
	}
}

// gobForm is the reference: what Encode wrote for every value before the
// value form existed.
func gobForm(t *testing.T, v any) []byte {
	t.Helper()
	b, err := encodeGob(v)
	if err != nil {
		t.Fatalf("gob %T: %v", v, err)
	}
	return b
}

// TestValueAgreesWithGob: decoding the gob form and the value form of the
// same value gives equal values, except where gob cannot tell an empty slice
// from a nil one.
func TestValueAgreesWithGob(t *testing.T) {
	for _, v := range valueSamples() {
		viaGob := reflect.New(reflect.TypeOf(v))
		if err := Decode(gobForm(t, v), viaGob.Interface()); err != nil {
			t.Fatalf("%T through gob: %v", v, err)
		}
		want := viaGob.Elem().Interface()
		got := valueRoundTrip(t, v)
		if !reflect.DeepEqual(dropEmpty(reflect.ValueOf(got)), dropEmpty(reflect.ValueOf(want))) {
			t.Errorf("%T: value form %#v, gob %#v", v, got, want)
		}
	}
}

// dropEmpty returns a copy of v with every empty slice made nil, which is
// what gob's decoder leaves behind for both.
func dropEmpty(v reflect.Value) any {
	out := reflect.New(v.Type()).Elem()
	out.Set(v)
	var walk func(reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Slice:
			if v.Len() == 0 {
				v.SetZero()
				return
			}
			c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
			reflect.Copy(c, v)
			v.Set(c)
			fallthrough
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		}
	}
	walk(out)
	return out.Interface()
}

// TestValueGoldenBytes pins the layout: a change to the tag, the
// fingerprint or the body of these three fails here before it fails between
// two processes of different builds.
func TestValueGoldenBytes(t *testing.T) {
	for _, c := range []struct {
		v    any
		want string // tag, fingerprint (FNV-1a 64 of the shape, little-endian), body
	}{
		{int(-3), "06" + "4617332b19afe12a" + "05"},
		{[]float64{1.5, -2}, "06" + "2b7da97016c1c070" + "03" + "000000000000f83f" + "00000000000000c0"},
		{point{Name: "ab", XY: [2]float64{1, 0}, Tags: []string{"", "c"}},
			"06" + "ca4f7f5d767c68dd" + "026162" + "000000000000f03f" + "0000000000000000" + "03" + "00" + "0163"},
	} {
		if got := hex.EncodeToString(MustEncode(c.v)); got != c.want {
			t.Errorf("%T:\n got %s\nwant %s", c.v, got, c.want)
		}
	}
	if p := planFor(reflect.TypeFor[point]()); p.shape != "{Name str;XY [2]f64;Tags []str}" {
		t.Errorf("shape of point: %s", p.shape)
	}
}

// TestParentGobPayloadsDecode: tagGob payloads written by the commit before
// the value form existed (6414c6d, its codec.MustEncode) still decode.
func TestParentGobPayloadsDecode(t *testing.T) {
	type nested struct {
		ID     int
		Points []point
		Scale  float64
		OK     bool
	}
	for _, c := range []struct {
		hex  string
		want any
	}{
		{"0103040054", 42},
		{"010cff9b020102ff9c00010800000dff9c0003fef83ffe02c0fef07f", []float64{1.5, -2.25, math.Inf(1)}},
		{"0138ff9d030101066e657374656401ff9e000104010249440104000106506f696e747301ffa60001055363616c6501080001024f4b01020000001bffa50201010c5b5d6d61696e2e706f696e7401ffa60001ffa000002eff9f03010105706f696e7401ffa000010301044e616d65010c000102585901ffa20001045461677301ffa40000001affa10101010a5b325d666c6f6174363401ffa20001080104000016ffa3020101085b5d737472696e6701ffa400010c000025ff9e010e01020101610102fef03f400102017800000202fee0bffe08400001fed03f010100",
			nested{ID: 7, Points: []point{{Name: "a", XY: [2]float64{1, 2}, Tags: []string{"x", ""}}, {XY: [2]float64{-0.5, 3}}}, Scale: 0.25, OK: true}},
	} {
		raw, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		out := reflect.New(reflect.TypeOf(c.want))
		if err := Decode(raw, out.Interface()); err != nil {
			t.Fatalf("%T: %v", c.want, err)
		}
		if got := out.Elem().Interface(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%T: got %#v, want %#v", c.want, got, c.want)
		}
	}
}

func TestValueShapeMismatch(t *testing.T) {
	type xy struct{ X, Y float64 }
	type ab struct{ A, B float64 }
	type xyz struct{ X, Y, Z float64 }
	for _, c := range []struct {
		name   string
		v      any
		target any
		names  []string // what the error must name
	}{
		{"slice into int", []float64{1}, new(int), []string{"[]f64", "i64"}},
		{"other field names", xy{1, 2}, &ab{A: 9}, []string{"{X f64;Y f64}", "{A f64;B f64}"}},
		{"field added", xy{1, 2}, &xyz{Z: 9}, []string{"{X f64;Y f64}", "{X f64;Y f64;Z f64}"}},
		// gob converted these without a word; a value payload does not.
		{"narrower int", int(1), new(int32), []string{"i64", "i32"}},
		{"wider float", float32(1), new(float64), []string{"f32", "f64"}},
		{"field removed", xyz{1, 2, 3}, &xy{X: 9}, []string{"{X f64;Y f64;Z f64}", "{X f64;Y f64}"}},
		{"pointer target", 1, new(*int), []string{"i64", "not plain data"}},
		{"target not plain data", 1, new(map[string]int), []string{"i64", "not plain data"}},
	} {
		before := reflect.ValueOf(c.target).Elem().Interface()
		err := Decode(MustEncode(c.v), c.target)
		if !errors.Is(err, ErrShapeMismatch) {
			t.Errorf("%s: got %v, want ErrShapeMismatch", c.name, err)
			continue
		}
		for _, n := range c.names {
			if !strings.Contains(err.Error(), n) {
				t.Errorf("%s: %q does not name %s", c.name, err, n)
			}
		}
		if after := reflect.ValueOf(c.target).Elem().Interface(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: target touched: %#v", c.name, after)
		}
	}
	// Same shape under other names is not a mismatch.
	var obs vector
	if err := Decode(MustEncode([]float64{1, 2}), &obs); err != nil || len(obs) != 2 {
		t.Errorf("[]float64 into a named slice: %v, %v", obs, err)
	}
	var n int64
	if err := Decode(MustEncode(int(5)), &n); err != nil || n != 5 {
		t.Errorf("int into int64: %d, %v", n, err)
	}
}

// TestValueCorruptBody: a body cut short, or with bytes left over, is an
// error and leaves the target zero, not half filled.
func TestValueCorruptBody(t *testing.T) {
	full := MustEncode(sampleCarry())
	for _, n := range []int{1, 5, 1 + fingerprintLen, len(full) / 2, len(full) - 1} {
		out := sampleCarry()
		if err := Decode(full[:n], &out); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		} else if n > fingerprintLen && !reflect.DeepEqual(out, carryLike{}) {
			t.Errorf("truncation to %d bytes left %+v behind", n, out)
		}
	}
	var c carryLike
	if err := Decode(append(bytes.Clone(full), 0), &c); err == nil {
		t.Error("trailing byte accepted")
	}
	// A length prefix far past the payload fails before it allocates.
	huge := append(MustEncode([]float64(nil))[:1+fingerprintLen], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	var s []float64
	if err := Decode(huge, &s); err == nil || s != nil {
		t.Errorf("length 1<<64-2 accepted: %v, %v", s, err)
	}
	var narrow []int8
	wide := append(MustEncode([]int8{1})[:1+fingerprintLen+1], 0x80, 0x04) // one element: varint 256
	if err := Decode(wide, &narrow); err == nil {
		t.Error("256 accepted into an int8")
	}
}

type tree struct{ Kids []tree }
type forest struct {
	Name  string
	Trees []tree
}
type hidden struct {
	A int
	b int
}

// TestValueFallsBackToGob: what the value form does not cover still encodes
// under gob and round-trips — a recursive type without hanging the compiler.
func TestValueFallsBackToGob(t *testing.T) {
	seven := 7
	for _, v := range []any{
		struct{ M map[string]int }{map[string]int{"a": 1}},
		struct{ P *int }{&seven},
		struct{ V any }{1},
		tree{Kids: []tree{{}, {Kids: []tree{{}}}}},
		forest{Name: "f", Trees: []tree{{Kids: []tree{{}}}}},
		struct{ At time.Time }{time.Unix(5, 0).UTC()},
		time.Unix(9, 0).UTC(),
		map[string]float64{"x": 1},
		hidden{A: 1, b: 2},
	} {
		b, err := Encode(v)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		if b[0] != tagGob {
			t.Errorf("%T encoded under tag 0x%02x, want gob", v, b[0])
		}
		out := reflect.New(reflect.TypeOf(v))
		if err := Decode(b, out.Interface()); err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		want := v
		if h, ok := v.(hidden); ok {
			h.b = 0 // gob skips unexported fields, as it always did
			want = h
		}
		if got := out.Elem().Interface(); !reflect.DeepEqual(got, want) {
			t.Errorf("%T: got %#v, want %#v", v, got, want)
		}
	}
}

// TestValuePlanPerType: goroutines touching the same types for the first
// time at once all end up with the one cached plan per type.
func TestValuePlanPerType(t *testing.T) {
	const goroutines, types = 8, 50
	ts := make([]reflect.Type, types)
	for i := range ts {
		// [i+1]fresh: array types no other test has compiled.
		type fresh struct {
			F []float64
			S string
		}
		ts[i] = reflect.ArrayOf(i+1, reflect.TypeFor[fresh]())
	}
	got := make([][]*valuePlan, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]*valuePlan, types)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i, typ := range ts {
				v := reflect.New(typ).Elem()
				b, err := Encode(v.Interface())
				if err != nil || b[0] != tagVal {
					t.Errorf("%v: %v", typ, err)
					return
				}
				if err := Decode(b, reflect.New(typ).Interface()); err != nil {
					t.Errorf("%v: %v", typ, err)
				}
				got[g][i] = planFor(typ)
			}
		}()
	}
	close(start)
	wg.Wait()
	for i, typ := range ts {
		cached, ok := plans.Load(typ)
		if !ok || cached.(*valuePlan) == nil {
			t.Fatalf("%v: no cached plan", typ)
		}
		for g := range got {
			if got[g][i] != cached.(*valuePlan) {
				t.Errorf("%v: goroutine %d used a plan that is not the cached one", typ, g)
			}
		}
	}
}

func TestPayloadTagsDistinct(t *testing.T) {
	tags := map[byte]string{}
	for name, tag := range map[string]byte{"gob": tagGob, "raw": tagRaw, "null": tagNull, "bin": tagBin, "errval": tagErrVal, "val": tagVal} {
		if other, dup := tags[tag]; dup {
			t.Errorf("tags %s and %s are both 0x%02x", name, other, tag)
		}
		tags[tag] = name
	}
	// Pinned on disk by internal/gcs/format_test.go.
	if tagGob != 0x01 || tagBin != 0x04 {
		t.Error("a durable tag moved")
	}
}

// The three values the allocation budget and the benchmarks share: what a
// task on the RL workload encodes and decodes.
var benchValues = []struct {
	name string
	v    any
	out  func() any
}{
	{"int", 42, func() any { return new(int) }},
	{"float64x16", sampleCarry().Obs, func() any { return new(vector) }},
	{"carry", sampleCarry(), func() any { return new(carryLike) }},
}

var benchSink []byte

func BenchmarkValueEncode(b *testing.B) {
	for _, c := range benchValues {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				benchSink = MustEncode(c.v)
			}
		})
	}
}

func BenchmarkValueDecode(b *testing.B) {
	for _, c := range benchValues {
		for _, form := range []struct {
			name string
			enc  func(any) ([]byte, error)
		}{{"value", Encode}, {"gob", encodeGob}} {
			data, err := form.enc(c.v)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(c.name+"/"+form.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if err := Decode(data, c.out()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
