package report

import (
	"fmt"
	"io"

	"bps/internal/core"
	"bps/internal/trace"
)

// WriteMetrics renders one run's headline numbers under a [label]
// header: the paper's inputs N, B, M, T and the execution time, then
// the four metrics it compares.
func WriteMetrics(w io.Writer, label string, m core.Metrics) {
	fmt.Fprintf(w, "[%s]\n", label)
	fmt.Fprintf(w, "  accesses (N):        %d\n", m.Ops)
	fmt.Fprintf(w, "  required blocks (B): %d (%d bytes)\n", m.Blocks, m.Blocks*trace.BlockSize)
	fmt.Fprintf(w, "  moved bytes (M):     %d\n", m.MovedBytes)
	fmt.Fprintf(w, "  overlapped T:        %.6f s\n", m.IOTime.Seconds())
	fmt.Fprintf(w, "  exec time:           %.6f s\n", m.ExecTime.Seconds())
	fmt.Fprintf(w, "  IOPS:                %.2f ops/s\n", m.IOPS())
	fmt.Fprintf(w, "  bandwidth:           %.2f MB/s\n", m.Bandwidth()/1e6)
	fmt.Fprintf(w, "  ARPT:                %.6f s\n", m.ARPT())
	fmt.Fprintf(w, "  BPS:                 %.2f blocks/s\n", m.BPS())
}
