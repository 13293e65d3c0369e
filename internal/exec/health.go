package exec

import (
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
)

// HealthSLO carries the deployment-specific targets the built-in health
// rules cannot derive from the plan alone. The zero value is valid:
// DeltaP99 == 0 disables the latency-SLO rule and CheckpointAge == 0 uses
// the default.
type HealthSLO struct {
	// DeltaP99 is the ingest-to-emit latency objective: the windowed p99
	// of upa_delta_latency_nanos{polarity="pos"} going past it is CRIT
	// (past 80% of it, WARN). 0 disables the rule.
	DeltaP99 time.Duration
	// CheckpointAge is how stale the last checkpoint may get before CRIT
	// (half of it, WARN). Engines that never checkpoint stay OK. Default
	// 15 minutes.
	CheckpointAge time.Duration
	// Window is how many sample ticks rate/delta/quantile rules look back
	// over. Default 10.
	Window int
}

const (
	defaultCheckpointAge = 15 * time.Minute
	defaultHealthWindow  = 10
)

// Built-in health rule names.
const (
	RulePatternViolations    = "pattern-violations"
	RulePrematureExpirations = "premature-expirations"
	RuleShardQueueDepth      = "shard-queue-depth"
	RuleShardBlocked         = "shard-blocked"
	RuleDeltaP99             = "delta-p99"
	RuleStalenessLag         = "staleness-lag"
	RuleCheckpointAge        = "checkpoint-age"
)

// BuiltinHealthRules builds the rule set every engine registers at compile
// time, parameterized only by scalars the engine already knows: the chosen
// execution strategy, the maintenance cadences (for staleness-lag
// thresholds), and the caller's SLOs. Keeping the inputs scalar lets tests
// inject faults purely at the metrics layer.
//
// Every rule reads series the instrumented engine maintains; on an
// uninstrumented engine the series never exist and every rule stays OK.
func BuiltinHealthRules(strategy plan.Strategy, eagerInterval, lazyInterval int64, slo HealthSLO) []obs.Rule {
	if slo.CheckpointAge <= 0 {
		slo.CheckpointAge = defaultCheckpointAge
	}
	if slo.Window <= 0 {
		slo.Window = defaultHealthWindow
	}
	w := slo.Window
	nan := math.NaN()

	// The watermark trails the clock by at most max(EagerInterval,
	// LazyInterval) on a healthy engine (see MetricWatermark); beyond a
	// small multiple of that bound, result staleness is no longer the
	// documented contract.
	maint := eagerInterval
	if lazyInterval > maint {
		maint = lazyInterval
	}
	if maint < 1 {
		maint = 1
	}

	rules := []obs.Rule{
		{
			Name: RulePatternViolations,
			Help: "retractions exceeded a declared update-pattern class in the window",
			Signal: obs.Signal{
				Series: MetricPatternViolations,
				Source: obs.SourceDelta,
				Window: w,
				Agg:    obs.AggSum,
			},
			Warn: nan, Crit: 0, // any violation in the window is CRIT
			ForTicks: 1, HoldTicks: 2,
		},
		{
			Name: RulePrematureExpirations,
			Help: fmt.Sprintf("premature retractions contradict the %v strategy's pattern assumptions", strategy),
			Signal: obs.Signal{
				Series: MetricPatternViolations,
				Match:  obs.Labels{"kind": ViolationPremature},
				Source: obs.SourceDelta,
				Window: w,
				Agg:    obs.AggSum,
			},
			Warn: nan, Crit: 0,
			ForTicks: 1, HoldTicks: 2,
		},
		{
			Name: RuleShardQueueDepth,
			Help: "a shard ingest queue is backing up (capacity " +
				fmt.Sprint(shardQueue) + " batches)",
			Signal: obs.Signal{
				Series: MetricShardQueueDepth,
				Source: obs.SourceValue,
				Agg:    obs.AggMax,
			},
			Warn: float64(shardQueue) - 2, Crit: float64(shardQueue) - 1,
			ForTicks: 2, HoldTicks: 2,
		},
		{
			Name: RuleShardBlocked,
			Help: "producers are spending a large share of wall time blocked on full shard queues (ns blocked per second)",
			Signal: obs.Signal{
				Series: MetricShardQueueBlocked,
				Source: obs.SourceRate,
				Window: w,
				Agg:    obs.AggMax,
			},
			Warn: 0.25e9, Crit: 0.6e9,
			ForTicks: 2, HoldTicks: 2,
		},
		{
			Name: RuleStalenessLag,
			Help: "result staleness: max(clock) - min(watermark) exceeds the maintenance-cadence bound",
			Signal: obs.Signal{
				Series: MetricClock,
				Source: obs.SourceValue,
				Agg:    obs.AggMax,
				Minus: &obs.Signal{
					Series: MetricWatermark,
					Source: obs.SourceValue,
					Agg:    obs.AggMin,
				},
			},
			Warn: 2 * float64(maint), Crit: 8 * float64(maint),
			ForTicks: 2, HoldTicks: 2,
		},
		{
			Name: RuleCheckpointAge,
			Help: "nanoseconds since the last completed checkpoint (engines that never checkpoint stay OK)",
			Signal: obs.Signal{
				Series: MetricCheckpointLast,
				Source: obs.SourceAge,
				Agg:    obs.AggMax,
			},
			Warn:     float64(slo.CheckpointAge.Nanoseconds()) / 2,
			Crit:     float64(slo.CheckpointAge.Nanoseconds()),
			ForTicks: 1, HoldTicks: 1,
		},
	}
	if slo.DeltaP99 > 0 {
		rules = append(rules, obs.Rule{
			Name: RuleDeltaP99,
			Help: fmt.Sprintf("windowed p99 ingest-to-emit latency vs the %v SLO", slo.DeltaP99),
			Signal: obs.Signal{
				Series: MetricDeltaLatency,
				Match:  obs.Labels{"polarity": PolarityPos},
				Source: obs.SourceQuantile,
				Window: w,
				Q:      0.99,
			},
			Warn:     0.8 * float64(slo.DeltaP99.Nanoseconds()),
			Crit:     float64(slo.DeltaP99.Nanoseconds()),
			ForTicks: 2, HoldTicks: 2,
		})
	}
	return rules
}

// HealthRules returns the engine's built-in rule set (see
// BuiltinHealthRules). The NT-specific rules key off the first registered
// query's strategy; an empty registry gets the UPA set.
func (e *Engine) HealthRules(slo HealthSLO) []obs.Rule {
	strategy := plan.UPA
	if e.phys != nil {
		strategy = e.phys.Strategy
	}
	return BuiltinHealthRules(strategy, e.cfg.EagerInterval, e.cfg.LazyInterval, slo)
}

// HealthRules returns the sharded executor's built-in rule set. Shard
// queue-depth and blocked-time rules match per-shard label sets via AggMax,
// so one slow shard is enough to trip them.
func (s *Sharded) HealthRules(slo HealthSLO) []obs.Rule {
	e := s.shards[0]
	return BuiltinHealthRules(s.phys.Strategy, e.cfg.EagerInterval, e.cfg.LazyInterval, slo)
}
