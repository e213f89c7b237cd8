package experiments

import (
	"fmt"

	"lbsq/internal/core"
	"lbsq/internal/dataset"
	"lbsq/internal/trajectory"
)

// ClientSavings runs the motivation experiment behind the whole paper:
// a mobile client follows a trajectory, asking for its nearest neighbor
// at every position update, and we count how many updates reach the
// server under each protocol. Expected: the validity-region client and
// the baselines all beat naive re-querying by orders of magnitude; the
// validity-region client needs no tuning parameter (unlike SR01's m and
// ZL01's max speed) and survives direction changes (unlike TP02).
func ClientSavings(cfg Config) []Table {
	d := dataset.Uniform(cfg.fixedN(), cfg.Seed)
	s := buildServer(d, cfg, false)

	steps := 2000
	if cfg.Full {
		steps = 10000
	}
	step := 0.0005 // ≈ half the typical NN distance at N=100k
	path := trajectory.RandomWaypoint(d.Universe, step, steps, cfg.Seed+2)
	headings := trajectory.Headings(path)

	t := Table{
		Title: fmt.Sprintf("server queries over a %d-step random-waypoint trajectory (uniform, N=%s, k=1)",
			steps, fmtN(cfg.fixedN())),
		Columns: []string{"client", "server queries", "query rate", "KB received"},
	}

	record := func(name string, st core.ClientStats) {
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", st.ServerQueries),
			fmt.Sprintf("%.4f", st.QueryRate()),
			fmt.Sprintf("%.1f", float64(st.BytesReceived)/1024),
		})
	}

	naive := core.NewNaiveClient(s, nil, 1)
	for _, p := range path {
		if _, err := naive.At(p); err != nil {
			panic(err)
		}
	}
	record("naive (re-query always)", naive.Stats)

	vr := core.NewNNClient(s, 1)
	for _, p := range path {
		if _, err := vr.At(p); err != nil {
			panic(err)
		}
	}
	record("validity region (this paper)", vr.Stats)

	for _, m := range []int{4, 16} {
		sr := core.NewSR01Client(s, nil, 1, m)
		for _, p := range path {
			if _, err := sr.At(p); err != nil {
				panic(err)
			}
		}
		record(fmt.Sprintf("SR01 (m=%d)", m), sr.Stats)
	}

	tp := core.NewTP02Client(s, nil, 1)
	for i, p := range path {
		if _, err := tp.At(p, headings[i]); err != nil {
			panic(err)
		}
	}
	record("TP02 (known velocity)", tp.Stats)

	zs, err := core.NewZL01Server(s.Index, s.Universe, step)
	if err != nil {
		panic(err)
	}
	zl := core.NewZL01Client(zs, nil)
	for i, p := range path {
		if _, err := zl.At(p, float64(i)); err != nil {
			panic(err)
		}
	}
	record("ZL01 (Voronoi + max speed)", zl.Stats)

	return []Table{t}
}
