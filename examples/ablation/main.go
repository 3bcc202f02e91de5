// Ablation prints the catalogue's §V-D section — the same entry cmd/report
// prints, so the values explored are declared once (internal/exp): the
// backoff_time_unit and divisor_factor sweeps the paper gives guidance for,
// then the table holding the desynchronization switch (dctcp+ vs
// dctcp+partial), the min-cwnd control and the compositions.
package main

import (
	"fmt"
	"os"

	dcp "dctcpplus"
)

func main() {
	f := dcp.NewAblations(dcp.Scale{Rounds: 30, Warmup: 8, Seed: 1})
	f.Run()
	fmt.Printf("%s\npaper: %s\n\n", f.Title, f.Expectation)
	f.Render(os.Stdout)
	fmt.Println("\n§V-D: a unit too small cannot relieve severe fan-in congestion, one too large")
	fmt.Println("over-throttles; a divisor too big recovers prematurely, one too conservative")
	fmt.Println("retards the rate regulation.")
}
