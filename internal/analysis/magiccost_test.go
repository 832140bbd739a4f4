package analysis

import "testing"

func TestMagicCostFlagsLiterals(t *testing.T) {
	src := `package mem

type Time uint64

type Eng struct{}

func (Eng) Schedule(d Time, fn func()) {}

type Proc struct{}

func (Proc) Sleep(d Time) {}

type K struct{}

func (K) compute(p Proc, n Time) {}

const costX Time = 40

func f(e Eng, p Proc, k K, n Time) {
	e.Schedule(0, nil)
	e.Schedule(25, nil)
	p.Sleep(Time(7))
	p.Sleep(costX)
	p.Sleep(n + 1)
	k.compute(p, 40)
}
`
	got := runOn(t, []*Analyzer{MagicCost}, "repro/internal/mem", map[string]string{"f.go": src}, nil)
	checkFindings(t, got, []finding{
		{21, "magiccost"}, // Schedule(25, ...); Schedule(0, ...) above is exempt
		{22, "magiccost"}, // conversion-wrapped literal Time(7)
		{25, "magiccost"}, // compute(p, 40); named costX and n+1 are exempt
	})
}

func TestMagicCostExemptsCostsFileAndHostPackages(t *testing.T) {
	pkg := `package mem

type Time uint64

type Proc struct{}

func (Proc) Sleep(d Time) {}
`
	costs := `package mem

// The cost table itself may carry literals; that is its job.
func warm(p Proc) { p.Sleep(99) }
`
	got := runOn(t, []*Analyzer{MagicCost}, "repro/internal/mem",
		map[string]string{"a.go": pkg, "costs.go": costs}, nil)
	checkFindings(t, got, nil)

	host := `package bench

type Proc struct{}

func (Proc) Sleep(d uint64) {}

func f(p Proc) { p.Sleep(500) }
`
	got = runOn(t, []*Analyzer{MagicCost}, "repro/internal/bench", map[string]string{"f.go": host}, nil)
	checkFindings(t, got, nil)
}

// The defects magiccost caught when it landed: the kernel charged its
// service-reply routing and session setup as bare literals, and the
// m3fs client its mount retry. They are CostServReply, CostSessSetup
// and costMountRetry in the costs.go tables now.
func TestMagicCostMutationLiteralKernelCosts(t *testing.T) {
	kernel := `package core

type Time uint64

type Process struct{}

func (*Process) Sleep(d Time) {}

type Kernel struct{}

func (k *Kernel) compute(p *Process, n Time) { p.Sleep(n) }

func (k *Kernel) run(p *Process) {
	k.compute(p, 20)
}

func (k *Kernel) openSess(hp *Process) {
	k.compute(hp, 40)
}
`
	got := runOn(t, []*Analyzer{MagicCost}, "repro/internal/core", map[string]string{"kernel.go": kernel}, nil)
	checkFindings(t, got, []finding{{14, "magiccost"}, {18, "magiccost"}})
	client := `package m3fs

type Process struct{}

func (*Process) Sleep(d uint64) {}

func mount(p *Process, tries int) {
	for i := 0; i < tries; i++ {
		p.Sleep(1000)
	}
}
`
	got = runOn(t, []*Analyzer{MagicCost}, "repro/internal/m3fs", map[string]string{"client.go": client}, nil)
	checkFindings(t, got, []finding{{9, "magiccost"}})
}
