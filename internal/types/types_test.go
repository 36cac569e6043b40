package types

import (
	"testing"
	"testing/quick"
)

func TestDeriveTaskIDDeterministic(t *testing.T) {
	parent := DeriveTaskID(NilTaskID, 7)
	a := DeriveTaskID(parent, 3)
	b := DeriveTaskID(parent, 3)
	if a != b {
		t.Fatalf("same inputs produced different IDs: %v vs %v", a, b)
	}
	c := DeriveTaskID(parent, 4)
	if a == c {
		t.Fatalf("different indices produced identical IDs")
	}
}

// TestDerivedIDsPinned holds every derivation to the bytes of the layout
// that names an object's producer (recorded lineage names objects by them)
// and to zero allocations.
func TestDerivedIDsPinned(t *testing.T) {
	p := DeriveTaskID(NilTaskID, 7)
	for _, c := range []struct{ got, want string }{
		{p.Hex(), "8e561c871048e7d49c5de90200000000"},
		{DeriveTaskID(p, 1<<40+3).Hex(), "a9cfd492d70e2388f64e6e9b00000000"},
		{ObjectIDForReturn(p, 2).Hex(), "8e561c871048e7d49c5de90200000003"},
		{PutObjectID(p, 9).Hex(), "1fb2461325e2e7fe6002627f80000000"},
	} {
		if c.got != c.want {
			t.Errorf("derived %s, want %s", c.got, c.want)
		}
	}
	var sink [IDSize]byte
	if n := testing.AllocsPerRun(100, func() {
		sink = DeriveTaskID(p, 1)
		sink = ObjectIDForReturn(p, 1)
		sink = PutObjectID(p, 1)
	}); n != 0 {
		t.Errorf("deriving IDs allocates %.0f times", n)
	}
	_ = sink
}

func TestDeriveTaskIDDistinctFromParent(t *testing.T) {
	parent := DeriveTaskID(NilTaskID, 0)
	child := DeriveTaskID(parent, 0)
	if child == parent {
		t.Fatal("child ID equals parent ID")
	}
}

// Property: task-ID derivation is injective over (parent index, child index)
// pairs within the tested domain — no collisions.
func TestTaskIDCollisionFreedom(t *testing.T) {
	seen := make(map[TaskID][2]uint64)
	for p := uint64(0); p < 50; p++ {
		parent := DeriveTaskID(NilTaskID, p)
		for c := uint64(0); c < 50; c++ {
			id := DeriveTaskID(parent, c)
			if prev, ok := seen[id]; ok {
				t.Fatalf("collision: (%d,%d) and (%d,%d)", prev[0], prev[1], p, c)
			}
			seen[id] = [2]uint64{p, c}
		}
	}
}

func TestObjectIDForReturnDistinct(t *testing.T) {
	task := DeriveTaskID(NilTaskID, 1)
	seen := make(map[ObjectID]bool)
	for i := 0; i < 100; i++ {
		id := ObjectIDForReturn(task, i)
		if seen[id] {
			t.Fatalf("duplicate object ID at return index %d", i)
		}
		seen[id] = true
	}
	if seen[PutObjectID(task, 0)] {
		t.Fatal("put ID collided with return ID")
	}
}

// Property: a return names its task, for every valid index.
func TestReturnNamesProducer(t *testing.T) {
	f := func(seed uint64, i uint32) bool {
		task := DeriveTaskID(NilTaskID, seed)
		idx := int(i % MaxReturns)
		return ObjectIDForReturn(task, idx).Producer() == task
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	task := DeriveTaskID(NilTaskID, 1)
	for _, idx := range []int{0, MaxReturns - 1} {
		if got := ObjectIDForReturn(task, idx).Producer(); got != task {
			t.Fatalf("return %d names %v, want %v", idx, got, task)
		}
	}
}

// Property: a put names no producer.
func TestPutNamesNoProducer(t *testing.T) {
	f := func(seed, i uint64) bool {
		return PutObjectID(DeriveTaskID(NilTaskID, seed), i).Producer().IsNil()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if !ObjectID(DeriveTaskID(NilTaskID, 1)).Producer().IsNil() {
		t.Fatal("an ID with zero low bytes names a producer")
	}
}

// Property: task, return and put IDs never collide, whatever they derive
// from.
func TestIDKindsNeverCollide(t *testing.T) {
	f := func(a, b, c uint64, i uint32) bool {
		task := ObjectID(DeriveTaskID(DeriveTaskID(NilTaskID, a), b))
		ret := ObjectIDForReturn(DeriveTaskID(NilTaskID, b), int(i%MaxReturns))
		put := PutObjectID(DeriveTaskID(NilTaskID, a), c)
		return task != ret && ret != put && put != task
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReturnStringsCarryTheIndex(t *testing.T) {
	task := DeriveTaskID(NilTaskID, 7)
	a, b := ObjectIDForReturn(task, 0), ObjectIDForReturn(task, 2)
	if a.String() == b.String() {
		t.Fatalf("two returns of one task print alike: %s", a)
	}
	if got, want := b.String(), "obj-8e561c871048.2"; got != want {
		t.Fatalf("return prints %s, want %s", got, want)
	}
	if got, want := (ObjectID{0xfe, 0xed, 0xfa, 0xce, 0xfe, 0xed}).String(), "obj-feedfacefeed"; got != want {
		t.Fatalf("an ID with zero low bytes prints %s, want %s", got, want)
	}
}

// Property: derivation is a pure function of its inputs.
func TestDerivationPure(t *testing.T) {
	f := func(parentSeed, idx uint64) bool {
		p := DeriveTaskID(NilTaskID, parentSeed)
		return DeriveTaskID(p, idx) == DeriveTaskID(p, idx) &&
			ObjectIDForReturn(p, int(idx%16)) == ObjectIDForReturn(p, int(idx%16))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	task := DeriveTaskID(NilTaskID, 42)
	got, err := ParseTaskID(task.Hex())
	if err != nil {
		t.Fatal(err)
	}
	if got != task {
		t.Fatalf("round trip changed ID: %v vs %v", got, task)
	}
	obj := ObjectIDForReturn(task, 0)
	gotObj, err := ParseObjectID(obj.Hex())
	if err != nil {
		t.Fatal(err)
	}
	if gotObj != obj {
		t.Fatal("object ID round trip mismatch")
	}
	if _, err := ParseTaskID("zz"); err == nil {
		t.Fatal("expected error for bad hex")
	}
	if _, err := ParseObjectID("abcd"); err == nil {
		t.Fatal("expected error for short hex")
	}
}

func TestTaskSpecReturnIDsAndDeps(t *testing.T) {
	id := DeriveTaskID(NilTaskID, 0)
	dep := ObjectIDForReturn(DeriveTaskID(NilTaskID, 9), 0)
	spec := TaskSpec{
		ID:         id,
		Function:   "f",
		NumReturns: 2,
		Args:       []Arg{ValueArg([]byte("x")), RefArg(dep)},
	}
	if spec.ReturnID(0) == spec.ReturnID(1) {
		t.Fatal("distinct return indices share an ID")
	}
	deps := spec.Deps()
	if len(deps) != 1 || deps[0] != dep {
		t.Fatalf("Deps = %v, want [%v]", deps, dep)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ReturnID out of range did not panic")
		}
	}()
	spec.ReturnID(2)
}

func TestTaskSpecValidate(t *testing.T) {
	id := DeriveTaskID(NilTaskID, 0)
	cases := []struct {
		name    string
		spec    TaskSpec
		wantErr bool
	}{
		{"ok", TaskSpec{ID: id, Function: "f", NumReturns: 1}, false},
		{"nil id", TaskSpec{Function: "f"}, true},
		{"no function", TaskSpec{ID: id}, true},
		{"negative returns", TaskSpec{ID: id, Function: "f", NumReturns: -1}, true},
		{"id with low bytes", TaskSpec{ID: TaskID(ObjectIDForReturn(id, 0)), Function: "f", NumReturns: 1}, true},
		{"returns past the index space", TaskSpec{ID: id, Function: "f", NumReturns: MaxReturns + 1}, true},
		{"most returns", TaskSpec{ID: id, Function: "f", NumReturns: MaxReturns}, false},
		{"bad resources", TaskSpec{ID: id, Function: "f", Resources: Resources{"CPU": -1}}, true},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", tc.name, err, tc.wantErr)
		}
	}
}

func TestStatusStrings(t *testing.T) {
	if TaskFinished.String() != "FINISHED" || TaskPending.String() != "PENDING" {
		t.Fatal("unexpected task status strings")
	}
	if !TaskFinished.Terminal() || !TaskFailed.Terminal() || TaskRunning.Terminal() {
		t.Fatal("Terminal misclassifies statuses")
	}
	if ObjectLost.String() != "LOST" {
		t.Fatal("unexpected object state string")
	}
	if TaskStatus(99).String() == "" || ObjectState(99).String() == "" {
		t.Fatal("out-of-range statuses should still render")
	}
}

func TestObjectInfoHasLocation(t *testing.T) {
	n1 := NodeID(DeriveTaskID(NilTaskID, 1))
	n2 := NodeID(DeriveTaskID(NilTaskID, 2))
	info := ObjectInfo{Locations: []NodeID{n1}}
	if !info.HasLocation(n1) || info.HasLocation(n2) {
		t.Fatal("HasLocation wrong")
	}
}
