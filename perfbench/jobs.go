package main

import (
	"fmt"
	"math/rand"
	"slices"
)

// Algorithms and strategies, by the names the API and Report use.
var algNames = []string{"mergesort", "scan", "sum"}

const (
	stratBF       = "bf-cpu"
	stratGPU      = "gpu-only"
	stratBasic    = "basic-hybrid"
	stratAdvanced = "advanced-hybrid"
	stratAuto     = "auto"
)

// fixedStrategies are the strategies auto chooses between.
var fixedStrategies = []string{stratBF, stratGPU, stratBasic, stratAdvanced}

// input is one seeded int32 array and its plain-Go ground truth. Jobs that
// share an input share the truth.
type input struct {
	data   []int32
	sorted []int32 // slices.Sort of data
	sum    int64   // int64 sum of data
}

func newInput(n int, rng *rand.Rand) *input {
	in := &input{data: make([]int32, n)}
	for i := range in.data {
		in.data[i] = rng.Int31()
	}
	in.sorted = slices.Clone(in.data)
	slices.Sort(in.sorted)
	for _, v := range in.data {
		in.sum += int64(v)
	}
	return in
}

// newProbeRNG seeds the inputs of fixed-size probes, apart from the job
// list's stream.
func newProbeRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed ^ 0x70726f6265)) }

// job is one generated request. Index is its position in the workload's
// job list, the number a correctness failure names.
type job struct {
	Index    int
	Alg      string
	LogN     int
	Strategy string
	Binary   bool // api-small: binary wire (else JSON)
	in       *input
}

func (j job) n() int { return 1 << j.LogN }

// class is the (algorithm, size, strategy) cell a job belongs to.
func (j job) class() string { return fmt.Sprintf("%s/2^%d/%s", j.Alg, j.LogN, j.Strategy) }

// cell is one entry of a workload's full-factorial round.
type cell struct {
	alg      string
	logN     int
	strategy string
}

// cells crosses algorithms, log sizes and strategies.
func cells(logs []int, strategies []string) []cell {
	var out []cell
	for _, a := range algNames {
		for _, l := range logs {
			for _, s := range strategies {
				out = append(out, cell{a, l, s})
			}
		}
	}
	return out
}

func logRange(lo, hi int) []int {
	var out []int
	for l := lo; l <= hi; l++ {
		out = append(out, l)
	}
	return out
}

// spec is a workload's job-list recipe. Every round holds each cell once,
// in a seeded order, so the mix of any whole number of rounds is the same
// for every seed while the inputs and the order are not.
type spec struct {
	rounds      int
	cells       []cell
	binaryShare [2]int // api-small: numerator/denominator of binary-wire jobs
	sharedInput bool   // one input per size, shared by every job of that size
}

// specFor returns a workload's recipe. shrink lowers every log size (floor
// 4), for short self-test runs.
func specFor(workload string, shrink int) (spec, error) {
	var sp spec
	switch workload {
	case "api-small":
		sp = spec{rounds: 4, binaryShare: [2]int{4, 5},
			cells: cells(logRange(10, 14), []string{stratBF, stratGPU, stratAdvanced, stratAuto})}
	case "native-large":
		sp = spec{rounds: 1, sharedInput: true,
			cells: cells(logRange(19, 22), []string{stratBF, stratGPU, stratAdvanced})}
	case "sim-burst":
		// Half auto over 2^10..2^18, a quarter small (fusable) gpu-only,
		// a quarter bf-cpu: 108 + 54 + 54 jobs per burst.
		var cs []cell
		for i := 0; i < 4; i++ {
			cs = append(cs, cells(logRange(10, 18), []string{stratAuto})...)
		}
		for i := 0; i < 6; i++ {
			cs = append(cs, cells(logRange(10, 12), []string{stratGPU})...)
		}
		for i := 0; i < 2; i++ {
			cs = append(cs, cells(logRange(10, 18), []string{stratBF})...)
		}
		sp = spec{rounds: 1, sharedInput: true, cells: cs}
	default:
		return spec{}, fmt.Errorf("unknown workload %q (want api-small, native-large or sim-burst)", workload)
	}
	for i := range sp.cells {
		sp.cells[i].logN = max(4, sp.cells[i].logN-shrink)
	}
	return sp, nil
}

// generate builds a workload's job list from its seed: the same seed gives
// the same jobs, inputs and order.
func generate(workload string, seed int64, shrink int) ([]job, error) {
	sp, err := specFor(workload, shrink)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	shared := map[int]*input{}
	var jobs []job
	for r := 0; r < sp.rounds; r++ {
		round := slices.Clone(sp.cells)
		rng.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
		// Exactly binaryShare of each round goes over the binary wire.
		binary := make([]bool, len(round))
		if d := sp.binaryShare[1]; d > 0 {
			for i := range binary {
				binary[i] = i%d < sp.binaryShare[0]
			}
			rng.Shuffle(len(binary), func(a, b int) { binary[a], binary[b] = binary[b], binary[a] })
		}
		for i, c := range round {
			j := job{Index: len(jobs), Alg: c.alg, LogN: c.logN, Strategy: c.strategy, Binary: binary[i]}
			if sp.sharedInput {
				if shared[c.logN] == nil {
					shared[c.logN] = newInput(1<<c.logN, rng)
				}
				j.in = shared[c.logN]
			} else {
				j.in = newInput(1<<c.logN, rng)
			}
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// output is a job's result in plain Go types; exactly the field matching
// the job's algorithm is read.
type output struct {
	sorted []int32
	scan   []int64
	sum    *int64
}

// corrupt, when set, damages outputs before they are checked. Self-tests
// set it to prove the gate trips.
var corrupt func(j job, out output)

// verify checks a result bit for bit against plain Go: slices.Sort, a
// running int64 prefix sum, and an int64 sum.
func verify(j job, out output) error {
	if corrupt != nil {
		corrupt(j, out)
	}
	switch j.Alg {
	case "mergesort":
		if len(out.sorted) != len(j.in.sorted) {
			return fmt.Errorf("sorted length %d, want %d", len(out.sorted), len(j.in.sorted))
		}
		for i, v := range j.in.sorted {
			if out.sorted[i] != v {
				return fmt.Errorf("sorted[%d] = %d, want %d", i, out.sorted[i], v)
			}
		}
	case "scan":
		if len(out.scan) != len(j.in.data) {
			return fmt.Errorf("scan length %d, want %d", len(out.scan), len(j.in.data))
		}
		var acc int64
		for i, v := range j.in.data {
			acc += int64(v)
			if out.scan[i] != acc {
				return fmt.Errorf("scan[%d] = %d, want %d", i, out.scan[i], acc)
			}
		}
	case "sum":
		if out.sum == nil {
			return fmt.Errorf("no sum returned")
		}
		if *out.sum != j.in.sum {
			return fmt.Errorf("sum = %d, want %d", *out.sum, j.in.sum)
		}
	default:
		return fmt.Errorf("unknown algorithm %q", j.Alg)
	}
	return nil
}

// check runs the correctness gate on one output: nil, or a *mismatch that
// names o's workload and seed and the job.
func (o options) check(j job, out output) error {
	if err := verify(j, out); err != nil {
		return &mismatch{workload: o.workload, seed: o.seed, job: j, err: err}
	}
	return nil
}

// mismatch is the correctness gate's verdict: it names the workload, seed
// and job so the failure can be replayed.
type mismatch struct {
	workload string
	seed     int64
	job      job
	err      error
}

func (m *mismatch) Error() string {
	return fmt.Sprintf("wrong output: workload %s seed %d job %d (%s): %v",
		m.workload, m.seed, m.job.Index, m.job.class(), m.err)
}
