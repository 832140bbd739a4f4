package bench

import (
	"slices"

	"repro/internal/overload"
	"repro/internal/workload"
)

// fleet is the open-loop client fleet of E-tail and E-load: a Scenario
// of single-PE clients with SerialSetup, so the clients mount and set
// up one at a time: the experiments measure steady-state traffic, not
// a thundering-herd boot, and an armed overload stack never sheds the
// fleet's own scaffolding.
// The start barrier releases them together, and each then fires its
// operations at the absolute arrival times of its own schedule. A
// client running behind fires at once: offered load never slows down
// to match the service.
type fleet struct {
	clients int
	// setup prepares one client, whose os is already prefixed with the
	// client's private directory.
	setup func(os *workload.M3OS) error
	// arrivals returns client k's schedule; with closed set the client
	// ignores the arrival times and fires back to back.
	arrivals func(k int) *overload.Gen
	closed   bool
	// op fires client k's i-th operation.
	op func(k, i int, os *workload.M3OS) error
}

// run boots the fleet on opt's platform and runs it to completion.
func (f fleet) run(opt M3Options) (*Result, error) {
	// Clients in setup order, which SerialSetup makes instance order.
	var clients []*workload.M3OS
	b := workload.Benchmark{Name: "fleet", PEs: 1,
		Setup: func(os workload.OS) error {
			m := os.(*workload.M3OS)
			clients = append(clients, m)
			return f.setup(m)
		},
		Run: func(os workload.OS) error {
			m := os.(*workload.M3OS)
			k := slices.Index(clients, m)
			ctx := m.Env.Ctx
			base := ctx.Now()
			gen := f.arrivals(k)
			for i := 0; ; i++ {
				at, ok := gen.Next()
				if !ok {
					return nil
				}
				if target := base + at; !f.closed && ctx.Now() < target {
					ctx.P.Sleep(target - ctx.Now())
				}
				if err := f.op(k, i, m); err != nil {
					return err
				}
			}
		},
	}
	return Scenario{Workload: b, Instances: f.clients, SerialSetup: true, M3Options: opt}.Run()
}
