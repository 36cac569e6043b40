package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/types"
)

var update = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzDecode from fuzzSeeds")

// countOverflow is the payload that used to panic the record decoder: a
// NodeInfo whose address length is 1<<63, which as an int is negative and
// passed the signed bound check.
var countOverflow = append(append([]byte{tagBin, binNodeInfo}, make([]byte, 16)...),
	0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)

func TestCountOverflowPayload(t *testing.T) {
	var n types.NodeInfo
	if err := Decode(countOverflow, &n); err == nil {
		t.Fatal("a string length of 1<<63 decoded")
	}
}

// fuzzTargets is a fresh decode target for every record type of the binary
// form and for the shapes of the value form.
func fuzzTargets() []any {
	return []any{
		new(types.ObjectInfo), new(types.TaskState), new(types.TaskSpec), new(types.NodeInfo),
		new(types.TaskLedgerBatch), new(types.JobInfo),
		new(int), new(float64), new(string), new([]byte), new([]float64), new([]int), new(vector),
		new([][]string), new([3]int), new([]point), new(carryLike), new(trial),
	}
}

// fuzzSeeds is one valid payload per record type and value shape, cuts of
// the records and the deepest values, the payloads of the other forms,
// countOverflow and its like for the value form. The gob seeds are the checked-in parent payloads: a gob
// stream's type IDs depend on what else the process has encoded, so a fresh
// one is not the same bytes twice.
func fuzzSeeds() [][]byte {
	valid := [][]byte{
		MustEncode(sampleObjectInfo()), MustEncode(sampleTaskState()), MustEncode(sampleTaskSpec()),
		MustEncode(sampleNodeInfo()), MustEncode(sampleTaskLedgerBatch()), MustEncode(sampleJobInfo()),
	}
	for _, v := range []any{sampleCarry(), sampleTrial(), [][]string{{"x"}, nil, {}}} {
		valid = append(valid, MustEncode(v))
	}
	seeds := [][]byte{countOverflow, {tagNull}, MustEncode([]byte("raw")), EncodeError("boom"), {tagVal}, {tagBin}, {0x7f}}
	for _, b := range valid {
		seeds = append(seeds, b, b[:len(b)/2], b[:len(b)-1])
	}
	for _, v := range valueSamples() {
		seeds = append(seeds, MustEncode(v))
	}
	// Value payloads of the right shape whose every length prefix is 2^18:
	// far past the bytes behind it, and small enough that a decoder which
	// believed it fails a test rather than the process.
	for _, out := range []any{new([]float64), new([][]string), new([]point), new(carryLike), new(trial)} {
		b := binary.LittleEndian.AppendUint64([]byte{tagVal}, planFor(reflect.TypeOf(out).Elem()).fp)
		seeds = append(seeds, append(b, bytes.Repeat([]byte{0x81, 0x80, 0x10}, 12)...))
	}
	for _, h := range []string{"0103040054", "010cff9b020102ff9c00010800000dff9c0003fef83ffe02c0fef07f"} {
		b, _ := hex.DecodeString(h)
		seeds = append(seeds, b)
	}
	// A ledger batch carrying a birth, whole and cut inside the birth.
	born, spec := sampleTaskLedgerBatch(), sampleTaskSpec()
	born.Deltas[1].Spec = &spec
	b := MustEncode(born)
	return append(seeds, b, b[:len(b)-1])
}

func corpusFile(i int, seed []byte) (path, content string) {
	return filepath.Join("testdata", "fuzz", "FuzzDecode", fmt.Sprintf("seed-%03d", i)),
		"go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
}

// TestFuzzCorpusCommitted keeps testdata/fuzz/FuzzDecode, which is where
// FuzzDecode gets its seeds, equal to fuzzSeeds: a change of layout shows up
// as a diff there. Regenerate with -update.
func TestFuzzCorpusCommitted(t *testing.T) {
	for i, seed := range fuzzSeeds() {
		path, want := corpusFile(i, seed)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("%s is not seed %d (%v); run go test -run TestFuzzCorpusCommitted -update", path, i, err)
		}
	}
}

// heldBytes is the memory v holds outside itself: backing arrays at their
// capacity, string bytes, map entries, what pointers lead to.
func heldBytes(v reflect.Value) uintptr {
	var n uintptr
	switch v.Kind() {
	case reflect.String:
		n = uintptr(v.Len())
	case reflect.Slice:
		n = uintptr(v.Cap()) * v.Type().Elem().Size()
		for i := 0; i < v.Len(); i++ {
			n += heldBytes(v.Index(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			n += heldBytes(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += heldBytes(v.Field(i))
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			n += it.Key().Type().Size() + it.Value().Type().Size() + heldBytes(it.Key()) + heldBytes(it.Value())
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			n = v.Elem().Type().Size() + heldBytes(v.Elem())
		}
	}
	return n
}

// decodedPerByte bounds what a decoded value may hold per byte of payload,
// for the two forms whose lengths this package reads itself (gob keeps its
// own limits). A slice of slices is the widest: a 24-byte header for the one
// byte of a nil or empty element, and Grow rounds the backing array up to a
// size class.
const decodedPerByte = 32

// FuzzDecode: whatever the bytes, Decode into any target returns — it does
// not panic and does not write to its input — and what it leaves in the
// target, value or error, holds no more than decodedPerByte times the
// input: a length prefix that the bytes behind it cannot fill made nothing.
// That is read off the target, not off the allocator, so the same input
// gives the same verdict; TestAllocBudgetDecodeSeeds holds the seeds to the
// same bound on bytes allocated, error paths included.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pristine := bytes.Clone(data)
		for _, out := range fuzzTargets() {
			err := Decode(data, out)
			if len(data) == 0 || data[0] == tagGob {
				continue
			}
			if got, limit := heldBytes(reflect.ValueOf(out).Elem()), uintptr(decodedPerByte*len(data)); got > limit {
				t.Errorf("%d bytes into %T left it holding %d (limit %d, err %v)", len(data), out, got, limit, err)
			}
		}
		if !bytes.Equal(data, pristine) {
			t.Error("Decode wrote to its input")
		}
	})
}
