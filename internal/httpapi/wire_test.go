package httpapi

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// A delta survives EncodeDelta → JSON → DecodeDelta unchanged: const
// changes keep their tuple key, variable ones their group key, and an
// empty delta stays empty (with [] on the wire, not null).
func TestDeltaRoundTrip(t *testing.T) {
	for name, d := range map[string]*incremental.Delta{
		"const": {Added: []incremental.Change{{CFD: 1, Kind: core.ConstViolation, Tuple: 7}}},
		"variable": {Removed: []incremental.Change{
			{CFD: 0, Kind: core.VariableViolation, Key: []relation.Value{"01", "908"}},
		}},
		"empty": {},
	} {
		t.Run(name, func(t *testing.T) {
			raw, err := json.Marshal(EncodeDelta(d))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(raw), `"added":[`) || !strings.Contains(string(raw), `"removed":[`) {
				t.Fatalf("wire form %s: want added/removed as arrays", raw)
			}
			var w Delta
			if err := json.Unmarshal(raw, &w); err != nil {
				t.Fatal(err)
			}
			got, err := DecodeDelta(w)
			if err != nil {
				t.Fatal(err)
			}
			want := &incremental.Delta{
				Added:   append([]incremental.Change{}, d.Added...),
				Removed: append([]incremental.Change{}, d.Removed...),
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip = %+v, want %+v", got, want)
			}
		})
	}
}

func TestDecodeDeltaRejects(t *testing.T) {
	for name, w := range map[string]Delta{
		"unknown kind":          {Added: []Change{{Kind: "partial"}}},
		"const without a tuple": {Removed: []Change{{Kind: "const"}}},
	} {
		if _, err := DecodeDelta(w); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// Ops survive EncodeOps → DecodeOps: keyed and allocator inserts stay
// apart, deletes and updates keep their targets.
func TestOpsRoundTrip(t *testing.T) {
	var cs incremental.ChangeSet
	cs.Insert(relation.Tuple{"a", "b"}).InsertKeyed(9, relation.Tuple{"c", "d"}).Delete(3).Update(4, "B", "e")
	ops, err := EncodeOps(&cs)
	if err != nil {
		t.Fatal(err)
	}
	if ops[0].Key != nil || ops[1].Key == nil || *ops[1].Key != 9 {
		t.Fatalf("insert keys on the wire: %+v", ops[:2])
	}
	got, err := DecodeOps(ops)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, &cs) {
		t.Fatalf("round trip = %+v, want %+v", got, cs)
	}
	if keys := InsertedKeys(got); !reflect.DeepEqual(keys, []int64{0, 9}) {
		t.Fatalf("InsertedKeys = %v, want [0 9]", keys)
	}
}

func TestDecodeOpsErrors(t *testing.T) {
	for _, tc := range []struct {
		ops  string
		want string
	}{
		{`[{"op":"delete"}]`, "ops[0]: delete requires a key"},
		{`[{"op":"insert","values":["a"]},{"op":"update","attr":"B"}]`, "ops[1]: update requires a key"},
		{`[{"op":"merge"}]`, `ops[0]: unknown op "merge"`},
	} {
		var ops []Op
		if err := json.Unmarshal([]byte(tc.ops), &ops); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeOps(ops); err == nil || err.Error() != tc.want {
			t.Errorf("DecodeOps(%s) = %v, want %q", tc.ops, err, tc.want)
		}
	}
}
