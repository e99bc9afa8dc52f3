// Multiapp: two applications sharing one I/O system, both recorded.
//
// The paper's measurement methodology (§III.B step 1) records *every*
// application the I/O system services. Here a bandwidth-hungry scan
// shares a 4-server PVFS with a think-heavy analytics job; the combined
// trace gives the system-wide B, T, and BPS, while per-application
// reports show what each one experienced.
//
// Run with: go run ./examples/multiapp
package main

import (
	"fmt"
	"log"

	"bps"
)

func main() {
	// Each application is a tenant; the zero QoSConfig leaves them
	// unarbitrated, so the controller only observes.
	combined, perApp, _, err := bps.SimulateTenants(
		bps.RunConfig{
			Storage: bps.Storage{Media: bps.HDD, Servers: 4},
			Seed:    1,
		},
		bps.QoSConfig{},
		bps.TenantSpec{
			Tenant:          bps.QoSTenant{Name: "scan"},
			Processes:       2,
			BytesPerProcess: 64 << 20,
			RecordSize:      1 << 20,
		},
		bps.TenantSpec{
			Tenant:          bps.QoSTenant{Name: "analytics"},
			Processes:       2,
			BytesPerProcess: 8 << 20,
			RecordSize:      64 << 10,
			ComputePerOp:    5 * bps.Millisecond, // think time between records
		},
	)
	if err != nil {
		log.Fatal(err)
	}

	names := []string{"scan", "analytics"}
	fmt.Printf("%-12s %8s %10s %10s %12s %14s\n",
		"application", "procs", "ops", "exec (s)", "ARPT (ms)", "BPS (blk/s)")
	for i, rep := range perApp {
		m := rep.Metrics
		fmt.Printf("%-12s %8d %10d %10.3f %12.3f %14.0f\n",
			names[i], len(uniquePIDs(rep.Records)), m.Ops,
			m.ExecTime.Seconds(), m.ARPT()*1e3, m.BPS())
	}

	m := combined.Metrics
	fmt.Printf("\ncombined I/O system view (all %d accesses from both apps):\n", m.Ops)
	fmt.Printf("  B = %d blocks, T = %.3fs (overlap across apps counted once)\n",
		m.Blocks, m.IOTime.Seconds())
	fmt.Printf("  system BPS = %.0f blocks/s\n", m.BPS())
	fmt.Println("\nNeither application's own trace explains the system: the paper's")
	fmt.Println("global gather is what makes BPS an overall I/O-system metric.")
}

func uniquePIDs(records []bps.Record) map[int64]bool {
	set := make(map[int64]bool)
	for _, r := range records {
		set[r.PID] = true
	}
	return set
}
