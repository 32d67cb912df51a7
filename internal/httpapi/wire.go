package httpapi

import (
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// Op is one op of a POST /v1/apply body. Key targets delete and update;
// on an insert it is the optional caller-chosen key (routed writes).
type Op struct {
	Op     string   `json:"op"`
	Values []string `json:"values,omitempty"`
	Key    *int64   `json:"key,omitempty"`
	Attr   string   `json:"attr,omitempty"`
	Value  string   `json:"value,omitempty"`
}

// Change is one added or retired violation: Tuple is set on a "const"
// change, Key (the group's X-projection) on a "variable" one.
type Change struct {
	CFD   int      `json:"cfd"`
	Kind  string   `json:"kind"`
	Tuple *int64   `json:"tuple,omitempty"`
	Key   []string `json:"key,omitempty"`
}

// Delta is the "delta" field of every mutation response.
type Delta struct {
	Added   []Change `json:"added"`
	Removed []Change `json:"removed"`
}

// EncodeDelta converts a monitor delta to its wire form.
func EncodeDelta(d *incremental.Delta) Delta {
	conv := func(cs []incremental.Change) []Change {
		out := make([]Change, 0, len(cs))
		for _, c := range cs {
			wc := Change{CFD: c.CFD, Kind: c.Kind.String()}
			if c.Kind == core.ConstViolation {
				tuple := c.Tuple
				wc.Tuple = &tuple
			} else {
				wc.Key = c.Key
			}
			out = append(out, wc)
		}
		return out
	}
	return Delta{Added: conv(d.Added), Removed: conv(d.Removed)}
}

// DecodeDelta converts a wire delta back to a monitor delta.
func DecodeDelta(w Delta) (*incremental.Delta, error) {
	conv := func(in []Change) ([]incremental.Change, error) {
		out := make([]incremental.Change, 0, len(in))
		for _, c := range in {
			vc := incremental.Change{CFD: c.CFD}
			switch c.Kind {
			case "const":
				if c.Tuple == nil {
					return nil, fmt.Errorf("const change without tuple key")
				}
				vc.Kind = core.ConstViolation
				vc.Tuple = *c.Tuple
			case "variable":
				vc.Kind = core.VariableViolation
				vc.Key = c.Key
			default:
				return nil, fmt.Errorf("unknown change kind %q", c.Kind)
			}
			out = append(out, vc)
		}
		return out, nil
	}
	added, err := conv(w.Added)
	if err != nil {
		return nil, err
	}
	removed, err := conv(w.Removed)
	if err != nil {
		return nil, err
	}
	return &incremental.Delta{Added: added, Removed: removed}, nil
}

// EncodeOps converts a ChangeSet to its wire ops. An insert carries its
// key exactly when the caller chose it (InsertKeyed).
func EncodeOps(cs *incremental.ChangeSet) ([]Op, error) {
	ops := make([]Op, 0, len(cs.Ops))
	for i := range cs.Ops {
		op := &cs.Ops[i]
		key := op.Key
		switch op.Kind {
		case incremental.OpInsert:
			o := Op{Op: "insert", Values: op.Tuple}
			if op.Keyed() {
				o.Key = &key
			}
			ops = append(ops, o)
		case incremental.OpDelete:
			ops = append(ops, Op{Op: "delete", Key: &key})
		case incremental.OpUpdate:
			ops = append(ops, Op{Op: "update", Key: &key, Attr: op.Attr, Value: op.Value})
		default:
			return nil, fmt.Errorf("unknown op kind %v", op.Kind)
		}
	}
	return ops, nil
}

// DecodeOps builds the ChangeSet of an op vector. Errors name the
// offending op as "ops[i]: ...".
func DecodeOps(ops []Op) (*incremental.ChangeSet, error) {
	var cs incremental.ChangeSet
	for i, o := range ops {
		switch o.Op {
		case "insert":
			if o.Key != nil {
				cs.InsertKeyed(*o.Key, relation.Tuple(o.Values))
			} else {
				cs.Insert(relation.Tuple(o.Values))
			}
		case "delete":
			if o.Key == nil {
				return nil, fmt.Errorf("ops[%d]: delete requires a key", i)
			}
			cs.Delete(*o.Key)
		case "update":
			if o.Key == nil {
				return nil, fmt.Errorf("ops[%d]: update requires a key", i)
			}
			cs.Update(*o.Key, o.Attr, o.Value)
		default:
			return nil, fmt.Errorf("ops[%d]: unknown op %q", i, o.Op)
		}
	}
	return &cs, nil
}

// DecodeOne decodes the body of POST /v1/insert, /v1/delete or
// /v1/update — one op of kind op, without its "op" field — into a
// one-op ChangeSet. A delete or update without a key targets key 0. On
// failure it has answered the request and returns false.
func DecodeOne(w http.ResponseWriter, r *http.Request, op string) (*incremental.ChangeSet, bool) {
	o := Op{Key: new(int64)}
	if op == "insert" {
		o.Key = nil // absent means the node allocates
	}
	if !DecodePost(w, r, &o) {
		return nil, false
	}
	o.Op = op
	cs, err := DecodeOps([]Op{o})
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err)
		return nil, false
	}
	return cs, true
}

// InsertedKeys lists the keys an applied ChangeSet's inserts hold, in op
// order.
func InsertedKeys(cs *incremental.ChangeSet) []int64 {
	keys := make([]int64, 0, len(cs.Ops))
	for i := range cs.Ops {
		if cs.Ops[i].Kind == incremental.OpInsert {
			keys = append(keys, cs.Ops[i].Key)
		}
	}
	return keys
}
