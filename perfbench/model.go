package main

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/relation"
)

// model is the instance the acknowledged writes imply: the seed plus
// every op the server answered 2xx, in the order each writer saw its
// acknowledgements. Writers never target each other's keys, so that
// order is the server's.
type model struct {
	mu     sync.Mutex
	tuples map[int64]relation.Tuple
}

// newModel starts from seed rows keyed 0..len-1, as cfdserve keys a
// CSV it loads.
func newModel(seed []relation.Tuple) *model {
	m := &model{tuples: make(map[int64]relation.Tuple, len(seed))}
	for i, t := range seed {
		m.tuples[int64(i)] = t
	}
	return m
}

// apply folds one acknowledged ChangeSet in; keys are the inserted keys
// the server returned, in op order.
func (m *model) apply(ops []wireOp, keys []int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ki := 0
	for _, o := range ops {
		switch o.Op {
		case "insert":
			if ki >= len(keys) {
				return fmt.Errorf("model: ack has %d keys for more inserts", len(keys))
			}
			m.tuples[keys[ki]] = relation.Tuple(o.Values)
			ki++
		case "update":
			t, ok := m.tuples[*o.Key]
			if !ok {
				return fmt.Errorf("model: acknowledged update of unknown key %d", *o.Key)
			}
			t = append(relation.Tuple(nil), t...)
			t[taxSchema.MustIndex(o.Attr)] = o.Value
			m.tuples[*o.Key] = t
		case "delete":
			delete(m.tuples, *o.Key)
		}
	}
	if ki != len(keys) {
		return fmt.Errorf("model: ack has %d keys for %d inserts", len(keys), ki)
	}
	return nil
}

func (m *model) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.tuples)
}

// get returns key's tuple.
func (m *model) get(key int64) (relation.Tuple, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tuples[key]
	return t, ok
}

// keys returns the live keys in ascending order.
func (m *model) keys() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int64, 0, len(m.tuples))
	for k := range m.tuples {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// relation materializes the tuples whose key keep accepts (nil: all).
func (m *model) relation(keep func(int64) bool) *relation.Relation {
	rel := relation.New(taxSchema)
	for _, k := range m.keys() {
		if keep == nil || keep(k) {
			t, _ := m.get(k)
			rel.Tuples = append(rel.Tuples, t)
		}
	}
	return rel
}

// violationCount runs Direct detection and counts violations the way
// the monitor does: per CFD, the tuples with a constant violation plus
// the violating LHS groups.
func violationCount(rel *relation.Relation, sigma []*core.CFD) (int, error) {
	res, err := detect.Detect(rel, sigma, detect.Options{Strategy: detect.Direct})
	if err != nil {
		return 0, err
	}
	return resultCount(res), nil
}

func resultCount(res *detect.Result) int {
	n := 0
	for _, v := range res.PerCFD {
		n += len(v.ConstTuples) + len(v.VariableKeys)
	}
	return n
}
