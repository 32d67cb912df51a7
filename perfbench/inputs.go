package main

import (
	"bytes"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/relation"
)

// Every input is a pure function of the run's seed: the seed instances,
// Σ, the insert pool and every op and request stream below. The
// programs under test only ever see what these produce.

const (
	// taxNoise is the share of generated tuples with one corrupted RHS
	// cell (the paper's NOISE), and of generated ops that carry a dirty
	// value.
	taxNoise = 0.05
	// seedTuples is the server workloads' starting instance size.
	seedTuples = 20000
	// poolTuples is the clean tuple pool inserts draw from.
	poolTuples = 20000
)

// Tax-schema columns the op generators touch.
var (
	taxSchema = gen.TaxSchema()
	colNM     = taxSchema.MustIndex("NM")
	colST     = taxSchema.MustIndex("ST")
	stateCode = func() []string {
		var out []string
		for _, s := range gen.States() {
			out = append(out, s.Code)
		}
		return out
	}()
)

// serverInputs are the inputs of a server workload.
type serverInputs struct {
	seed []relation.Tuple // starting instance, in key order
	csv  []byte           // seed as CSV
	cfds []byte           // Σ in the text notation
	pool []relation.Tuple // clean tuples for inserts
}

func newServerInputs(seed int64) (*serverInputs, error) {
	data := gen.GenerateTax(gen.TaxConfig{Size: seedTuples, Noise: taxNoise, Seed: seed})
	var csv bytes.Buffer
	if err := relation.WriteCSV(&csv, data.Dirty); err != nil {
		return nil, err
	}
	pool := gen.GenerateTax(gen.TaxConfig{Size: poolTuples, Seed: seed + 7919}).Clean
	return &serverInputs{
		seed: data.Dirty.Tuples,
		csv:  csv.Bytes(),
		cfds: []byte(core.FormatSet(gen.SemanticCFDs())),
		pool: pool.Tuples,
	}, nil
}

// headerCSV is an instance with no tuples: shard nodes start empty and
// are seeded through the router.
func headerCSV() []byte {
	var b bytes.Buffer
	_ = relation.WriteCSV(&b, relation.New(taxSchema)) // writes to memory
	return b.Bytes()
}

// wireOp is one op of a POST /v1/apply body.
type wireOp struct {
	Op     string   `json:"op"`
	Values []string `json:"values,omitempty"`
	Key    *int64   `json:"key,omitempty"`
	Attr   string   `json:"attr,omitempty"`
	Value  string   `json:"value,omitempty"`
}

// opGen draws ops from one seeded stream. Targets of updates and
// deletes are drawn as positions into a key set the caller keeps (see
// keySet), so the stream is fixed by the seed while the keys it names
// are the ones the server acknowledged.
type opGen struct {
	rng  *rand.Rand
	pool []relation.Tuple
	next int // next pool tuple to insert
}

func newOpGen(seed int64, pool []relation.Tuple) *opGen {
	return &opGen{rng: rand.New(rand.NewSource(seed)), pool: pool}
}

// insert returns a pool tuple; with probability taxNoise its state is
// corrupted, which breaks [ZIP]→[ST] and its relatives.
func (g *opGen) insert() wireOp {
	t := append(relation.Tuple(nil), g.pool[g.next%len(g.pool)]...)
	g.next++
	if g.rng.Float64() < taxNoise {
		t[colST] = g.otherState(t[colST])
	}
	return wireOp{Op: "insert", Values: t}
}

// update returns an update of key: a new name (no CFD reads NM), or
// with probability taxNoise a wrong state.
func (g *opGen) update(key int64) wireOp {
	k := key
	if g.rng.Float64() < taxNoise {
		return wireOp{Op: "update", Key: &k, Attr: "ST", Value: g.otherState("")}
	}
	name := g.pool[g.rng.Intn(len(g.pool))][colNM]
	return wireOp{Op: "update", Key: &k, Attr: "NM", Value: name}
}

func (g *opGen) otherState(not string) string {
	for {
		if s := stateCode[g.rng.Intn(len(stateCode))]; s != not {
			return s
		}
	}
}

// keySet is the live keys one writer may target, in insertion order,
// with O(1) removal. recent draws favour the newest keys.
type keySet struct {
	keys []int64
	pos  map[int64]int
}

func newKeySet() *keySet { return &keySet{pos: make(map[int64]int)} }

func (s *keySet) add(k int64) {
	s.pos[k] = len(s.keys)
	s.keys = append(s.keys, k)
}

func (s *keySet) remove(k int64) {
	i, ok := s.pos[k]
	if !ok {
		return
	}
	last := s.keys[len(s.keys)-1]
	s.keys[i] = last
	s.pos[last] = i
	s.keys = s.keys[:len(s.keys)-1]
	delete(s.pos, k)
}

func (s *keySet) len() int { return len(s.keys) }

// pick draws a live key: with probability recentP one of the last
// recentN slots (the newest keys, except where a removal moved the
// newest key into the freed slot), else any.
func (s *keySet) pick(rng *rand.Rand, recentP float64, recentN int) int64 {
	n := len(s.keys)
	if rng.Float64() < recentP && n > 0 {
		w := min(recentN, n)
		return s.keys[n-1-rng.Intn(w)]
	}
	return s.keys[rng.Intn(n)]
}
