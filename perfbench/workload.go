package main

import (
	"fmt"
	"sort"

	"setdiscovery/internal/synth"
)

// workload is one named set of inputs. Every unit's inputs derive from
// (seed, index space, worker, unit number) alone, so a run is reproducible
// and the program receives only the generated inputs.
type workload struct {
	name   string
	plane  string // "stream" (binary frames) or "json" (/v1 over HTTP)
	synth  bool   // §5.2.2 copy-add collection instead of the 64 bit-pattern sets
	seeded bool   // each session starts from one element of its target
	batch  int    // members per batch; 0 runs solo sessions

	// warmup is the number of units run through the fleet during set-up,
	// drawn from an index space of its own.
	warmup int
	// sliceUnits is the number of units each worker runs in one slice,
	// 2–2.6 s on the 2-vCPU VM README.md describes. A slice is a fixed
	// amount of work, not a fixed time: in a fixed time a faster host would
	// run more sessions per set-up, warm the lookahead cache further and
	// leave more stream sessions in the store, so what a slice measures
	// would depend on the host's speed. Stream sessions stay in the store
	// until their TTL, so sliceUnits also bounds what one set-up puts
	// there: README.md records it against the store budget.
	sliceUnits int
}

var workloads = []workload{
	{name: "stream-small", plane: "stream", warmup: 256, sliceUnits: 3072},
	{name: "json-small", plane: "json", warmup: 256, sliceUnits: 1536},
	{name: "stream-seeded", plane: "stream", synth: true, seeded: true, warmup: 64, sliceUnits: 768},
	{name: "stream-batch", plane: "stream", synth: true, seeded: true, batch: 16, warmup: 8, sliceUnits: 128},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// members is the number of discovery sessions one unit of work holds.
func (w workload) members() int {
	if w.batch > 0 {
		return w.batch
	}
	return 1
}

// data is a generated collection plus the benchmark's own view of it: the
// oracle answers membership from these maps, never from the program.
type data struct {
	sets      map[string][]string
	names     []string              // sorted; targets index it
	elems     []map[string]struct{} // per target, its elements
	supersets map[string][]int      // element → targets holding it
}

// generate builds the workload's collection. The collection is fixed; the
// seed only chooses which sessions run over it.
func generate(w workload) (*data, error) {
	sets := smallSets()
	if w.synth {
		var err error
		if sets, err = synthSets(); err != nil {
			return nil, err
		}
	}
	d := &data{sets: sets, supersets: make(map[string][]int)}
	for name := range sets {
		d.names = append(d.names, name)
	}
	sort.Strings(d.names)
	d.elems = make([]map[string]struct{}, len(d.names))
	for i, name := range d.names {
		m := make(map[string]struct{}, len(sets[name]))
		for _, e := range sets[name] {
			m[e] = struct{}{}
			d.supersets[e] = append(d.supersets[e], i)
		}
		d.elems[i] = m
	}
	return d, nil
}

// smallSets is the 64-set bit-pattern collection of cmd/setdiscload: set i
// holds the elements of its index's 10-bit pattern plus a distinguishing
// marker, so a session needs about six informative questions.
func smallSets() map[string][]string {
	sets := make(map[string][]string, 64)
	for i := 0; i < 64; i++ {
		var elems []string
		for bit := 0; bit < 10; bit++ {
			if i&(1<<bit) != 0 {
				elems = append(elems, fmt.Sprintf("bit%d", bit))
			}
		}
		elems = append(elems, fmt.Sprintf("marker%d", i))
		sets[fmt.Sprintf("S%03d", i)] = elems
	}
	return sets
}

// synthSets is the §5.2.2 copy-add collection: n=2000, d=50–60, α=0.9.
func synthSets() (map[string][]string, error) {
	c, err := synth.Generate(synth.Params{N: 2000, SizeMin: 50, SizeMax: 60, Alpha: 0.9, Seed: 1})
	if err != nil {
		return nil, err
	}
	sets := make(map[string][]string, c.Len())
	for _, s := range c.Sets() {
		elems := make([]string, len(s.Elems))
		for i, e := range s.Elems {
			elems[i] = c.EntityName(e)
		}
		sets[s.Name] = elems
	}
	return sets, nil
}

// spec is one unit of work: a solo session or a batch.
type spec struct {
	initial string // the seed element; "" starts from the whole collection
	targets []int  // one target per member
}

// warmupSalt names the warm-up index space; slice k of a run
// uses sliceSalt(k), so every slice runs sessions of its own.
const warmupSalt = 0

func sliceSalt(k int) int { return 1 + k }

// spec derives a worker's unit j of the given index space from the
// workload seed.
func (d *data) spec(w workload, seed uint64, salt, worker, j int) spec {
	h := func(k int) uint64 { return mix(seed, uint64(salt), uint64(worker), uint64(j), uint64(k)) }
	if !w.seeded {
		if salt == warmupSalt {
			// Cycle through every target, so warm-up reaches every
			// selection the timed sessions can ask for.
			return spec{targets: []int{j % len(d.names)}}
		}
		return spec{targets: []int{int(h(0) % uint64(len(d.names)))}}
	}
	first := int(h(0) % uint64(len(d.names)))
	elems := d.sets[d.names[first]]
	initial := elems[h(1)%uint64(len(elems))]
	if w.batch == 0 {
		return spec{initial: initial, targets: []int{first}}
	}
	sup := d.supersets[initial]
	targets := make([]int, w.batch)
	for m := range targets {
		targets[m] = sup[h(2+m)%uint64(len(sup))]
	}
	return spec{initial: initial, targets: targets}
}

// answer is the oracle's reply about target t to a membership or
// confirmation question.
func (d *data) answer(t int, entity, confirm string) string {
	_, member := d.elems[t][entity]
	if (entity != "" && member) || (confirm != "" && confirm == d.names[t]) {
		return "yes"
	}
	return "no"
}

// mix hashes its words with splitmix64 finalisers.
func mix(words ...uint64) uint64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, w := range words {
		h ^= w
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
