// Serving: the embedded-SQL workflow of examples/embeddedsql run as a
// long-lived service. A server owns the solver pool and the plan-set
// cache; concurrent clients prepare query templates (optimized once,
// persisted through the store format) and pick plans for concrete
// parameter values — the two halves of the paper's Figure 2 behind one
// API.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"mpq"
)

func main() {
	server := mpq.NewServer(mpq.ServeOptions{Workers: 4})
	defer server.Close()

	// Deployment time: prepare two query templates. The second Prepare
	// of a template is a cache hit.
	templates := []mpq.ServeTemplate{
		{Workload: mpq.WorkloadConfig{Tables: 4, Params: 1, Shape: mpq.Chain, Seed: 21}},
		{Workload: mpq.WorkloadConfig{Tables: 5, Params: 1, Shape: mpq.Star, Seed: 7}},
	}
	keys := make([]string, len(templates))
	for i, tpl := range templates {
		prep, err := server.Prepare(context.Background(), tpl)
		if err != nil {
			log.Fatal(err)
		}
		keys[i] = prep.Key
		fmt.Printf("prepared %s: %d plans in %v (cached=%v)\n",
			prep.Key[:8], prep.NumPlans, prep.Duration, prep.Cached)
	}
	again, err := server.Prepare(context.Background(), templates[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-prepared %s: cached=%v\n", again.Key[:8], again.Cached)

	// Run time: concurrent clients pick plans under different policies.
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x := mpq.Vector{0.2 + 0.3*float64(c)}
			res, err := server.Pick(context.Background(), mpq.PickRequest{
				Key:     keys[c%len(keys)],
				Point:   x,
				Policy:  mpq.PolicyWeightedSum,
				Weights: []float64{1, 10000}, // 1s worth 0.0001 USD
			})
			if err != nil {
				log.Printf("client %d: %v", c, err)
				return
			}
			choice := res.Choices[0]
			fmt.Printf("client %d at sel=%.1f: time=%.3fs fees=$%.6f  %v\n",
				c, x[0], choice.Cost[0], choice.Cost[1], choice.Plan)
		}(c)
	}
	wg.Wait()

	// The tradeoff frontier a user would be shown (Scenario 1).
	front, err := server.Pick(context.Background(), mpq.PickRequest{Key: keys[0], Point: mpq.Vector{0.6}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("frontier at sel=0.6:")
	for _, c := range front.Choices {
		fmt.Printf("  time=%8.3fs fees=$%.6f  %v\n", c.Cost[0], c.Cost[1], c.Plan)
	}

	stats := server.Stats()
	fmt.Printf("server stats: prepares=%d hits=%d picks=%d cachedSets=%d LPs=%d\n",
		stats.Prepares, stats.PrepareHits, stats.Picks, stats.Cache.ResidentEntries, stats.Geometry.LPs)
}
