package types

import (
	"reflect"
	"testing"
)

func TestOpRing(t *testing.T) {
	var r OpRing
	if r.Seen(7) {
		t.Fatal("empty ring saw a token")
	}
	r.Record(0, 3) // token 0 means "no dedup": never recorded, never seen
	if len(r) != 0 || r.Seen(0) {
		t.Fatalf("token 0 was recorded: %v", r)
	}
	for op := uint64(1); op <= 5; op++ {
		r.Record(op, 3)
	}
	if want := (OpRing{3, 4, 5}); !reflect.DeepEqual(r, want) {
		t.Fatalf("ring = %v, want the newest three %v", r, want)
	}
	if r.Seen(2) || !r.Seen(3) || !r.Seen(5) {
		t.Fatalf("Seen disagrees with ring %v", r)
	}
}
