package workload

import (
	"fmt"
	"math"

	"shortcutmining/internal/core"
)

// This file documents and automates the calibration behind
// core.Default(). The paper's prototype parameters (exact buffer
// provisioning, measured bandwidths) are not available, so the
// platform is chosen to minimize the distance to the abstract's
// quantitative claims:
//
//   - traffic reductions 53.3% / 58% / 43% for SqueezeNet-bypass /
//     ResNet-34 / ResNet-152,
//   - 1.93× geomean throughput.
//
// The knobs with leverage are the bank-pool capacity and the streaming
// reserve (they set where partial retention bites) and the feature-map
// channel bandwidth (it sets how memory-bound the baseline is). The PE
// array is pinned to the device's DSP budget (64×56 = 3584 on a
// VC709) and the weight channel to the second SODIMM's pin rate.

// CalibrationTarget is the paper's claims as an optimization target.
type CalibrationTarget struct {
	Reductions []Anchor // per-network fractional reductions
	Speedup    float64  // geomean
}

// PaperTarget returns the abstract's numbers.
func PaperTarget() CalibrationTarget {
	return CalibrationTarget{Reductions: Headline(), Speedup: PaperSpeedup}
}

// CalibrationError scores a platform against the target: the RMS of
// the per-network reduction errors plus the relative speedup error,
// all in comparable (fractional) units.
func CalibrationError(cfg core.Config, target CalibrationTarget) (float64, error) {
	var sumSq float64
	var speedups []float64
	for _, a := range target.Reductions {
		base, err := simulate(a.Network, cfg, core.Baseline)
		if err != nil {
			return 0, err
		}
		scm, err := simulate(a.Network, cfg, core.SCM)
		if err != nil {
			return 0, err
		}
		diff := scm.TrafficReductionVs(base) - a.Reduction
		sumSq += diff * diff
		speedups = append(speedups, scm.SpeedupVs(base))
	}
	rms := math.Sqrt(sumSq / float64(len(target.Reductions)))
	spErr := math.Abs(geomean(speedups)-target.Speedup) / target.Speedup
	return rms + spErr, nil
}

// CalibrationPoint is one candidate in the calibration search.
type CalibrationPoint struct {
	Banks   int
	Reserve int
	Error   float64
}

// Calibrate sweeps the pool geometry around the base config and
// returns the candidates sorted by error (best first). It is the
// reproducible record of how the default platform was chosen.
func Calibrate(base core.Config, target CalibrationTarget, banks []int, reserves []int) ([]CalibrationPoint, error) {
	if len(banks) == 0 || len(reserves) == 0 {
		return nil, fmt.Errorf("workload: empty calibration grid")
	}
	var points []CalibrationPoint
	for _, b := range banks {
		for _, r := range reserves {
			if r >= b {
				continue
			}
			cfg := base
			cfg.Pool.NumBanks = b
			cfg.ReserveBanks = r
			e, err := CalibrationError(cfg, target)
			if err != nil {
				return nil, err
			}
			points = append(points, CalibrationPoint{Banks: b, Reserve: r, Error: e})
		}
	}
	// Insertion sort: the grid is tiny.
	for i := 1; i < len(points); i++ {
		for j := i; j > 0 && points[j].Error < points[j-1].Error; j-- {
			points[j], points[j-1] = points[j-1], points[j]
		}
	}
	return points, nil
}
