package experiments

import (
	"fmt"

	"bps/internal/core"
	"bps/internal/sim"
	"bps/internal/testbed"
	"bps/internal/workload"
)

// Paper testbed data volumes (§IV.C), multiplied by Params.Scale.
const (
	set1FileBytes  = 64 << 30 // Fig. 4: 64 GB sequential read
	set2FileBytes  = 16 << 30 // Figs. 5–8: 16 GB file, record-size sweep
	set3TotalBytes = 32 << 30 // Figs. 9–11: 32 GB total
	set4Regions    = 4096000  // Fig. 12: region count
)

// set1 sweeps storage configurations: local HDD, local SSD, and PVFS on
// 1–8 HDD servers, read sequentially by one process (paper §IV.C.1).
func (s *Suite) set1() ([]Point, error) {
	return s.sweep("set1", func() ([]Point, error) {
		const record = 4 << 20 // large records let striping parallelism engage
		fileSize := s.params.scaled(set1FileBytes, record)
		w := workload.SeqRead{
			Label:           "iozone-seq",
			Processes:       1,
			BytesPerProcess: fileSize,
			RecordSize:      record,
		}
		var specs []runSpec
		for _, k := range []testbed.Media{testbed.HDD, testbed.SSD} {
			k := k
			specs = append(specs, runSpec{label: "local-" + k.String(), build: func(e *sim.Engine) (workload.Env, workload.Runner, error) {
				env, err := testbed.NewLocalEnv(e, k, 1, fileSize)
				return env, w, err
			}})
		}
		for _, n := range []int{1, 2, 4, 8} {
			n := n
			specs = append(specs, runSpec{label: fmt.Sprintf("pvfs-%ds", n), build: func(e *sim.Engine) (workload.Env, workload.Runner, error) {
				env, err := testbed.NewSharedFileEnv(e, testbed.ClusterSpec{Servers: n, Media: testbed.HDD, Clients: 1}, fileSize)
				return env, w, err
			}})
		}
		return s.runSweep("set1", specs)
	})
}

// set2RecordSizes is the paper's 4 KB – 8 MB record-size sweep.
var set2RecordSizes = []int64{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 8 << 20}

// set2 sweeps the I/O record size on a local device (paper §IV.C.2).
func (s *Suite) set2(k testbed.Media) ([]Point, error) {
	key := "set2-" + k.String()
	return s.sweep(key, func() ([]Point, error) {
		var specs []runSpec
		for _, record := range set2RecordSizes {
			record := record
			fileSize := s.params.scaled(set2FileBytes, record)
			w := workload.SeqRead{
				Label:           "iozone-sizes",
				Processes:       1,
				BytesPerProcess: fileSize,
				RecordSize:      record,
			}
			specs = append(specs, runSpec{label: sizeLabel(record), build: func(e *sim.Engine) (workload.Env, workload.Runner, error) {
				env, err := testbed.NewLocalEnv(e, k, 1, fileSize)
				return env, w, err
			}})
		}
		return s.runSweep(key, specs)
	})
}

// set3aProcs is the Fig. 9 concurrency sweep.
var set3aProcs = []int{1, 2, 3, 4, 5, 6, 7, 8}

// set3a is the paper's "pure" concurrency experiment (§IV.C.3, Figs. 9 and
// 10): 1–8 IOzone processes, each reading its own file pinned to its own
// server through POSIX, 32 GB total across processes.
func (s *Suite) set3a() ([]Point, error) {
	return s.sweep("set3a", func() ([]Point, error) {
		const record = 64 << 10
		total := s.params.scaled(set3TotalBytes, record*int64(len(set3aProcs)))
		var specs []runSpec
		for _, procs := range set3aProcs {
			procs := procs
			perProc := roundTo(total/int64(procs), record)
			w := workload.SeqRead{
				Label:           "iozone-tp",
				Processes:       procs,
				BytesPerProcess: perProc,
				RecordSize:      record,
			}
			specs = append(specs, runSpec{label: fmt.Sprintf("%dp", procs), build: func(e *sim.Engine) (workload.Env, workload.Runner, error) {
				env, err := newPinnedFilesEnv(e, testbed.ClusterSpec{Servers: 8, Media: testbed.HDD, Clients: procs}, perProc)
				return env, w, err
			}})
		}
		return s.runSweep("set3a", specs)
	})
}

// set3bProcs is the Fig. 11 concurrency sweep.
var set3bProcs = []int{1, 2, 4, 8, 16, 32}

// set3b is the paper's general HPC concurrency experiment (§IV.C.3,
// Fig. 11): IOR over MPI-IO on one shared file striped across 8 servers,
// each of n processes reading its own 1/n with 64 KB transfers.
func (s *Suite) set3b() ([]Point, error) {
	return s.sweep("set3b", func() ([]Point, error) {
		const transfer = 64 << 10
		maxProcs := set3bProcs[len(set3bProcs)-1]
		fileSize := s.params.scaled(set3TotalBytes, transfer*int64(maxProcs))
		var specs []runSpec
		for _, procs := range set3bProcs {
			procs := procs
			segment := roundTo(fileSize/int64(procs), transfer)
			w := workload.SeqRead{
				Label:           "ior",
				Processes:       procs,
				BytesPerProcess: segment,
				RecordSize:      transfer,
				UseMPIIO:        true,
				StartOffset:     func(pid int) int64 { return int64(pid) * segment },
			}
			specs = append(specs, runSpec{label: fmt.Sprintf("%dp", procs), build: func(e *sim.Engine) (workload.Env, workload.Runner, error) {
				env, err := testbed.NewSharedFileEnv(e, testbed.ClusterSpec{Servers: 8, Media: testbed.HDD, Clients: procs}, fileSize)
				return env, w, err
			}})
		}
		return s.runSweep("set3b", specs)
	})
}

// set4Spacings is the Fig. 12 region-spacing sweep (bytes of hole between
// 256-byte regions).
var set4Spacings = []int64{8, 64, 256, 1024, 2048, 4096}

// set4 is the additional-data-movement experiment (§IV.C.4, Fig. 12):
// HPIO noncontiguous reads with data sieving on a 4-server PVFS, region
// size 256 B, spacing swept 8–4096 B.
func (s *Suite) set4() ([]Point, error) {
	return s.sweep("set4", func() ([]Point, error) {
		// One Hpio process, like one MPI_File_read_all job: interleaved
		// multi-process streams would add seek noise orthogonal to the
		// additional-data-movement effect this set isolates.
		const procs = 1
		const regionSize = 256
		perProc := int(s.params.Scale * set4Regions)
		if perProc < 256 {
			perProc = 256
		}
		var specs []runSpec
		for _, spacing := range set4Spacings {
			spacing := spacing
			w := workload.Noncontig{
				Label:          "hpio",
				Processes:      procs,
				RegionCount:    perProc,
				RegionSize:     regionSize,
				RegionSpacing:  spacing,
				RegionsPerCall: 1024,
				Sieving:        true,
			}
			span := w.Span() + w.RegionSpacing
			fileSize := span * procs
			specs = append(specs, runSpec{label: fmt.Sprintf("gap%dB", spacing), build: func(e *sim.Engine) (workload.Env, workload.Runner, error) {
				env, err := testbed.NewSharedFileEnv(e, testbed.ClusterSpec{Servers: 4, Media: testbed.HDD, Clients: procs}, fileSize)
				return env, w, err
			}})
		}
		return s.runSweep("set4", specs)
	})
}

func (s *Suite) fig4() (Figure, error) {
	pts, err := s.set1()
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig4",
		Title:  "Normalized CC, various storage devices",
		Notes:  "Paper: all four metrics correct, |CC| ≈ 0.93.",
		XLabel: "storage configuration",
		Points: pts,
		CC:     ccTable("fig4", pts),
	}, nil
}

func (s *Suite) fig5() (Figure, error) {
	pts, err := s.set2(testbed.HDD)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig5",
		Title:  "Normalized CC, various I/O sizes, HDD",
		Notes:  "Paper: IOPS and ARPT wrong direction; BW and BPS correct, |CC| ≈ 0.90.",
		XLabel: "record size",
		Points: pts,
		CC:     ccTable("fig5", pts),
	}, nil
}

func (s *Suite) fig6() (Figure, error) {
	pts, err := s.set2(testbed.SSD)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig6",
		Title:  "Normalized CC, various I/O sizes, SSD",
		Notes:  "Paper: IOPS and ARPT wrong direction; BW and BPS correct, |CC| ≈ 0.90.",
		XLabel: "record size",
		Points: pts,
		CC:     ccTable("fig6", pts),
	}, nil
}

func (s *Suite) fig7() (Figure, error) {
	pts, err := s.set2(testbed.HDD)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:         "fig7",
		Title:      "IOPS vs application execution time, various I/O sizes, HDD",
		Notes:      "Paper: IOPS falls from 5156 (4 KB) to 732 (64 KB) while execution time falls 809.6 s → 358.1 s.",
		XLabel:     "record size",
		Points:     pts,
		DetailKind: core.IOPS,
		IsDetail:   true,
	}, nil
}

func (s *Suite) fig8() (Figure, error) {
	pts, err := s.set2(testbed.SSD)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:         "fig8",
		Title:      "ARPT vs application execution time, various I/O sizes, SSD",
		Notes:      "Paper: ARPT rises 0.00014 s (4 KB) → 0.02235 s (4 MB) while execution time falls.",
		XLabel:     "record size",
		Points:     pts,
		DetailKind: core.ARPT,
		IsDetail:   true,
	}, nil
}

func (s *Suite) fig9() (Figure, error) {
	pts, err := s.set3a()
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig9",
		Title:  "Normalized CC, various I/O concurrency (own file per server)",
		Notes:  "Paper: IOPS/BW/BPS correct, |CC| ≈ 0.96; ARPT wrong direction, |CC| ≈ 0.58.",
		XLabel: "processes",
		Points: pts,
		CC:     ccTable("fig9", pts),
	}, nil
}

func (s *Suite) fig10() (Figure, error) {
	pts, err := s.set3a()
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:         "fig10",
		Title:      "ARPT vs application execution time, various I/O concurrency",
		Notes:      "Paper: ARPT varies little (and rises) while execution time falls strongly.",
		XLabel:     "processes",
		Points:     pts,
		DetailKind: core.ARPT,
		IsDetail:   true,
	}, nil
}

func (s *Suite) fig11() (Figure, error) {
	pts, err := s.set3b()
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig11",
		Title:  "Normalized CC, IOR on shared striped file, 1–32 processes",
		Notes:  "Paper: IOPS/BW/BPS correct, |CC| ≈ 0.91; ARPT wrong direction, |CC| ≈ 0.39.",
		XLabel: "processes",
		Points: pts,
		CC:     ccTable("fig11", pts),
	}, nil
}

func (s *Suite) fig12() (Figure, error) {
	pts, err := s.set4()
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig12",
		Title:  "Normalized CC, additional data movement (data sieving)",
		Notes:  "Paper: BW wrong direction; IOPS/ARPT/BPS correct, |CC| ≈ 0.92.",
		XLabel: "region spacing",
		Points: pts,
		CC:     ccTable("fig12", pts),
	}, nil
}

// sizeLabel formats a record size the way the paper's axes do.
func sizeLabel(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func roundTo(v, unit int64) int64 {
	if v < unit {
		return unit
	}
	return v / unit * unit
}
