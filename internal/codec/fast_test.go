package codec

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/types"
)

func id16(b byte) (id [16]byte) {
	for i := range id {
		id[i] = b
	}
	return id
}

func sampleObjectInfo() types.ObjectInfo {
	return types.ObjectInfo{
		ID:           types.ObjectID(id16(1)),
		Size:         1 << 20,
		Producer:     types.TaskID(id16(2)),
		State:        types.ObjectReady,
		Locations:    []types.NodeID{types.NodeID(id16(3)), types.NodeID(id16(4))},
		RefCount:     7,
		EverRetained: true,
		RefOps:       []uint64{9, 1 << 63, 42},
		SpilledOn:    []types.NodeID{types.NodeID(id16(4))},
		Holders: map[types.NodeID]int64{
			types.NodeID(id16(3)): 5,
			types.NodeID(id16(4)): 2,
		},
	}
}

func sampleTaskSpec() types.TaskSpec {
	return types.TaskSpec{
		ID:       types.TaskID(id16(5)),
		Function: "train",
		Args: []types.Arg{
			{IsRef: true, Ref: types.ObjectID(id16(6))},
			{Value: []byte("inline")},
		},
		NumReturns:  2,
		Resources:   types.Resources{"CPU": 2, "GPU": 0.5},
		Parent:      types.TaskID(id16(7)),
		SubmitIndex: 12,
		MaxRetries:  3,
		Locality:    types.NodeID(id16(8)),
		Group:       types.PlacementGroupID(id16(9)),
		Bundle:      1,
		TraceID:     0xdeadbeef,
		Job:         types.JobID(id16(14)),
		Actor:       true,
	}
}

func sampleJobInfo() types.JobInfo {
	return types.JobInfo{
		Spec: types.JobSpec{
			ID:     types.JobID(id16(14)),
			Name:   "tenant-a",
			Weight: 3,
			Quota: types.JobQuota{
				MaxLiveTasks:   128,
				MaxQueueDepth:  64,
				MaxObjectBytes: 1 << 30,
			},
		},
		State:            types.JobStopping,
		CreatedNs:        100,
		StoppingNs:       900,
		StoppedNs:        0,
		LastTransitionNs: 900,
		PurgedNs:         0,
		MutOps:           []uint64{5, 1 << 61},
	}
}

func sampleTaskState() types.TaskState {
	return types.TaskState{
		Spec:             sampleTaskSpec(),
		Status:           types.TaskRunning,
		Node:             types.NodeID(id16(10)),
		Worker:           types.WorkerID(id16(11)),
		Error:            "partial failure",
		Retries:          1,
		SubmittedNs:      100,
		ScheduledNs:      200,
		StartedNs:        300,
		FinishedNs:       -1,
		LastTransitionNs: 300,
		MutOps:           []uint64{77, 78},
		Owner:            types.NodeID(id16(13)),
		OwnerSeq:         14,
	}
}

func sampleTaskLedgerBatch() types.TaskLedgerBatch {
	return types.TaskLedgerBatch{
		Node: types.NodeID(id16(13)),
		Deltas: []types.TaskStateDelta{
			{
				ID:               types.TaskID(id16(5)),
				Owner:            types.NodeID(id16(13)),
				Seq:              4,
				Status:           types.TaskFinished,
				Node:             types.NodeID(id16(13)),
				Worker:           types.WorkerID(id16(11)),
				Error:            "",
				Retries:          1,
				SubmittedNs:      100,
				ScheduledNs:      200,
				StartedNs:        300,
				FinishedNs:       400,
				LastTransitionNs: 400,
			},
			{
				ID:     types.TaskID(id16(6)),
				Owner:  types.NodeID(id16(13)),
				Seq:    1,
				Status: types.TaskQueued,
				Error:  "transient: connection reset",
			},
		},
		Op: 1 << 62,
	}
}

func sampleNodeInfo() types.NodeInfo {
	return types.NodeInfo{
		ID:        types.NodeID(id16(12)),
		Addr:      "node-12:7000",
		Total:     types.Resources{"CPU": 8},
		Alive:     true,
		LastSeen:  123456789,
		State:     types.NodeDraining,
		DrainNs:   42,
		QueueLen:  9,
		Available: types.Resources{"CPU": 3.5},
		Store: types.StoreStats{
			UsedBytes: 1, SpilledBytes: 2, Objects: 3,
			Spills: 4, Restores: 5, Reclaimed: 6, TierEvicted: 7,
		},
		MutOps: []uint64{1, 2, 3},
	}
}

func roundTrip[T any](t *testing.T, in T) {
	t.Helper()
	data, err := Encode(in)
	if err != nil {
		t.Fatalf("Encode(%T): %v", in, err)
	}
	if data[0] != tagBin {
		t.Fatalf("Encode(%T) took tag 0x%02x, want the binary fast path", in, data[0])
	}
	out, err := DecodeAs[T](data)
	if err != nil {
		t.Fatalf("Decode(%T): %v", in, err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch for %T:\n in: %+v\nout: %+v", in, in, out)
	}
}

func TestFastRoundTrip(t *testing.T) {
	roundTrip(t, sampleObjectInfo())
	roundTrip(t, sampleTaskSpec())
	roundTrip(t, sampleTaskState())
	roundTrip(t, sampleNodeInfo())
	roundTrip(t, sampleTaskLedgerBatch())
	roundTrip(t, sampleJobInfo())
}

// TestFastOriginTrailsTheRecord: Origin rides at the end of a TaskSpec or
// TaskState record and only when set, so both forms round-trip and a record
// with a nil Origin is the pre-Origin encoding (the goldens below pin that).
func TestFastOriginTrailsTheRecord(t *testing.T) {
	spec, state := sampleTaskSpec(), sampleTaskState()
	roundTrip(t, spec)
	roundTrip(t, state)
	bare := [2]int{len(MustEncode(spec)), len(MustEncode(state))}
	spec.Origin = types.NodeID(id16(15))
	state.Spec.Origin = types.NodeID(id16(15))
	roundTrip(t, spec)
	roundTrip(t, state)
	if got := [2]int{len(MustEncode(spec)), len(MustEncode(state))}; got != [2]int{bare[0] + 16, bare[1] + 16} {
		t.Fatalf("Origin added %v bytes over %v, want 16 each", got, bare)
	}
	// A cut inside the trailing ID is an error, not a nil Origin.
	data := MustEncode(state)
	if _, err := DecodeAs[types.TaskState](data[:len(data)-1]); err == nil {
		t.Fatal("TaskState with a truncated Origin decoded")
	}
}

// TestFastLineagePinsTrailing: the pin counter rides after the record, so a
// record without pins is the bytes it always was, and a pinned one decodes.
func TestFastLineagePinsTrailing(t *testing.T) {
	o := sampleObjectInfo()
	bare := MustEncode(o)
	o.LineagePins = 3
	pinned := MustEncode(o)
	if !bytes.HasPrefix(pinned, bare) || len(pinned) != len(bare)+1 {
		t.Fatalf("pinned record is not the unpinned one plus a trailing varint: %d vs %d bytes", len(pinned), len(bare))
	}
	roundTrip(t, o)
}

// TestFastBirthsTrailTheBatch: the specs of a batch's births ride after
// its token, so a batch without one is the bytes it always was, and a
// batch with one round-trips with the spec on its delta.
func TestFastBirthsTrailTheBatch(t *testing.T) {
	b := sampleTaskLedgerBatch()
	bare := MustEncode(b)
	spec := sampleTaskSpec()
	spec.Origin = types.NodeID(id16(15))
	b.Deltas[1].Spec = &spec
	born := MustEncode(b)
	if !bytes.HasPrefix(born, bare) {
		t.Fatal("a batch with a birth does not start with the batch without it")
	}
	roundTrip(t, b)
	if _, err := DecodeAs[types.TaskLedgerBatch](born[:len(born)-1]); err == nil {
		t.Fatal("batch with a truncated birth decoded")
	}
}

func TestFastRoundTripZeroValues(t *testing.T) {
	roundTrip(t, types.ObjectInfo{})
	roundTrip(t, types.TaskSpec{})
	roundTrip(t, types.TaskState{})
	roundTrip(t, types.NodeInfo{})
	roundTrip(t, types.TaskLedgerBatch{})
	roundTrip(t, types.JobInfo{})
}

// TestFastPointerEncode checks pointer and value encodings agree — callers
// pass both.
func TestFastPointerEncode(t *testing.T) {
	v := sampleObjectInfo()
	a := MustEncode(v)
	b := MustEncode(&v)
	if !bytes.Equal(a, b) {
		t.Fatalf("value and pointer encodings differ")
	}
}

// TestFastDecodesLegacyGob ensures records written by the gob path (older
// WAL entries, mixed-version stores) still decode: the tag byte selects the
// decoder.
func TestFastDecodesLegacyGob(t *testing.T) {
	in := sampleTaskState()
	var buf bytes.Buffer
	buf.WriteByte(tagGob)
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeAs[types.TaskState](buf.Bytes())
	if err != nil {
		t.Fatalf("gob-tagged decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("gob fallback mismatch")
	}
}

func TestFastTruncatedPayload(t *testing.T) {
	data := MustEncode(sampleTaskState())
	for _, cut := range []int{2, 3, len(data) / 2, len(data) - 1} {
		if _, err := DecodeAs[types.TaskState](data[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(data))
		}
	}
}

func TestFastWrongTarget(t *testing.T) {
	data := MustEncode(sampleObjectInfo())
	if _, err := DecodeAs[types.TaskState](data); err == nil {
		t.Fatal("ObjectInfo payload decoded into TaskState")
	}
}

// TestFastFieldSetsCovered pins the struct shapes the fast path encodes. If
// a field is added to one of the hot types, this test fails until fast.go
// learns the field (the expected lists below are updated as part of that).
func TestFastFieldSetsCovered(t *testing.T) {
	expect := map[reflect.Type][]string{
		reflect.TypeOf(types.ObjectInfo{}): {"ID", "Size", "Producer", "State", "Locations", "RefCount", "EverRetained", "RefOps", "Holders", "SpilledOn", "LineagePins"},
		reflect.TypeOf(types.TaskSpec{}):   {"ID", "Function", "Args", "NumReturns", "Resources", "Parent", "SubmitIndex", "MaxRetries", "Locality", "Group", "Bundle", "TraceID", "Job", "Actor", "Origin"},
		reflect.TypeOf(types.TaskState{}):  {"Spec", "Status", "Node", "Worker", "Error", "Retries", "SubmittedNs", "ScheduledNs", "StartedNs", "FinishedNs", "LastTransitionNs", "MutOps", "Owner", "OwnerSeq"},
		reflect.TypeOf(types.NodeInfo{}):   {"ID", "Addr", "Total", "Alive", "LastSeen", "State", "DrainNs", "QueueLen", "Available", "Store", "MutOps"},
		reflect.TypeOf(types.Arg{}):        {"IsRef", "Ref", "Value"},
		reflect.TypeOf(types.StoreStats{}): {"UsedBytes", "SpilledBytes", "Objects", "Spills", "Restores", "Reclaimed", "TierEvicted"},
		reflect.TypeOf(types.TaskStateDelta{}): {"ID", "Owner", "Seq", "Spec", "Status", "Node", "Worker", "Error", "Retries",
			"SubmittedNs", "ScheduledNs", "StartedNs", "FinishedNs", "LastTransitionNs"},
		reflect.TypeOf(types.TaskLedgerBatch{}): {"Node", "Deltas", "Op"},
		reflect.TypeOf(types.JobInfo{}): {"Spec", "State", "CreatedNs", "StoppingNs", "StoppedNs",
			"LastTransitionNs", "PurgedNs", "MutOps"},
		reflect.TypeOf(types.JobSpec{}):  {"ID", "Name", "Weight", "Quota"},
		reflect.TypeOf(types.JobQuota{}): {"MaxLiveTasks", "MaxQueueDepth", "MaxObjectBytes"},
	}
	for typ, want := range expect {
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v fields changed: now %v, fast.go encodes %v — update fast.go and this list together", typ, got, want)
		}
	}
}

// Records encoded before MutOps/RefOps became types.OpRing (captured from
// the parent commit with the sample fixtures above). The rings are stored in
// every task, object, node and job record and in the WAL, so the change of
// field type must not move a byte: each golden must decode to today's
// sample and today's sample must encode back to the golden.
const (
	goldenObjectInfo = "040101010101010101010101010101010101808080010202020202020202020202020202020202020303030303030303" +
		"0303030303030303040404040404040404040404040404040e010309808080808080808080012a010404040404040404" +
		"040404040404040402030303030303030303030303030303030a0404040404040404040404040404040404"
	goldenTaskState = "04020505050505050505050505050505050505747261696e020106060606060606060606060606060606000000000000" +
		"00000000000000000000000006696e6c696e65040203435055000000000000004003475055000000000000e03f070707" +
		"070707070707070707070707070c06080808080808080808080808080808080909090909090909090909090909090902" +
		"effdb6f50d0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e01060a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0b0b0b0b0b0b0b0b0b" +
		"0b0b0b0b0b0b0b0f7061727469616c206661696c75726502c8019003d80401d804024d4e0d0d0d0d0d0d0d0d0d0d0d0d" +
		"0d0d0d0d0e"
	goldenNodeInfo = "04040c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c6e6f64652d31323a373030300103435055000000000000204001aab4de" +
		"7502541201034350550000000000000c40020406080a0c0e03010203"
	goldenJobInfo = "04060e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0874656e616e742d610680028001808080800802c801880e00880e000205" +
		"808080808080808020"
	goldenGobTaskState = "01ffcd7f030101095461736b537461746501ff8000010e01045370656301ff8200010653746174757301040001044e6f" +
		"646501ff8e000106576f726b657201ff940001054572726f72010c00010752657472696573010400010b5375626d6974" +
		"7465644e73010400010b5363686564756c65644e730104000109537461727465644e73010400010a46696e6973686564" +
		"4e7301040001104c6173745472616e736974696f6e4e7301040001064d75744f707301ff960001054f776e657201ff8e" +
		"0001084f776e65725365710106000000ffc1ff81030101085461736b5370656301ff8200010e0102494401ff84000108" +
		"46756e6374696f6e010c0001044172677301ff8a00010a4e756d52657475726e7301040001095265736f757263657301" +
		"ff8c000106506172656e7401ff8400010b5375626d6974496e646578010600010a4d6178526574726965730104000108" +
		"4c6f63616c69747901ff8e00010547726f757001ff9000010642756e646c650104000107547261636549440106000103" +
		"4a6f6201ff920001054163746f72010200000016ff83010101065461736b494401ff84000106012000001aff89020101" +
		"0b5b5d74797065732e41726701ff8a0001ff8600002eff850301010341726701ff860001030105497352656601020001" +
		"0352656601ff8800010556616c7565010a00000018ff87010101084f626a656374494401ff880001060120000019ff8b" +
		"040101095265736f757263657301ff8c00010c0108000016ff8d010101064e6f6465494401ff8e0001060120000020ff" +
		"8f01010110506c6163656d656e7447726f7570494401ff900001060120000015ff91010101054a6f62494401ff920001" +
		"060120000018ff9301010108576f726b6572494401ff940001060120000016ff95020101085b5d75696e74363401ff96" +
		"0001060000fe0118ff80010110050505050505050505050505050505050105747261696e010201010110060606060606" +
		"06060606060606060606000210000000000000000000000000000000000106696e6c696e65000104010203475055fee0" +
		"3f0343505540011007070707070707070707070707070707010c01060110080808080808080808080808080808080110" +
		"09090909090909090909090909090909010201fcdeadbeef01100e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e010100010601" +
		"100a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a01100b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b010f7061727469616c20666169" +
		"6c757265010201ffc801fe019001fe0258010101fe025801024d4e01100d0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d010e00"
)

func goldenRoundTrip[T any](t *testing.T, golden string, want T) {
	t.Helper()
	raw, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAs[T](raw)
	if err != nil {
		t.Fatalf("decode pre-change %T: %v", want, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pre-change %T decoded to\n got %+v\nwant %+v", want, got, want)
	}
	if enc := MustEncode(want); !bytes.Equal(enc, raw) {
		t.Fatalf("%T encoding moved:\n got %x\nwant %x", want, enc, raw)
	}
}

func TestFastEncodingUnchangedByOpRing(t *testing.T) {
	goldenRoundTrip(t, goldenObjectInfo, sampleObjectInfo())
	goldenRoundTrip(t, goldenTaskState, sampleTaskState())
	goldenRoundTrip(t, goldenNodeInfo, sampleNodeInfo())
	goldenRoundTrip(t, goldenJobInfo, sampleJobInfo())
	// A gob-tagged record written before the change (the WAL's legacy form)
	// still decodes into the named ring type.
	raw, err := hex.DecodeString(goldenGobTaskState)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAs[types.TaskState](raw)
	if err != nil {
		t.Fatalf("decode pre-change gob TaskState: %v", err)
	}
	if !reflect.DeepEqual(got, sampleTaskState()) {
		t.Fatalf("pre-change gob TaskState decoded to %+v", got)
	}
}

func BenchmarkEncodeTaskStateFast(b *testing.B) {
	v := sampleTaskState()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeTaskStateFast(b *testing.B) {
	data := MustEncode(sampleTaskState())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeAs[types.TaskState](data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeTaskStateGob(b *testing.B) {
	in := sampleTaskState()
	var buf bytes.Buffer
	buf.WriteByte(tagGob)
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeAs[types.TaskState](data); err != nil {
			b.Fatal(err)
		}
	}
}
