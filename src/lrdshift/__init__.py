"""Multiscale level-shift anomaly detection for long-range-dependent series.

The pieces, bottom to top: an exact fractional-Gaussian-noise sampler and
model (:mod:`~lrdshift.fgn`), window-aggregation pyramids over dyadic-like
scales (:mod:`~lrdshift.pyramid`), exactly calibrated family-wise thresholds
for the max-over-scales statistic (:mod:`~lrdshift.thresholds`), the
pointwise detector and p-value map (:mod:`~lrdshift.detect`), a synthetic
injection-and-scoring harness (:mod:`~lrdshift.evaluate`), and a CLI
(:mod:`~lrdshift.cli`).
"""

from .detect import (
    DetectionConfig,
    DetectionResult,
    Interval,
    detect,
    flags_to_intervals,
    pvalue_map,
    standardize,
)
from .evaluate import (
    ConfusionCounts,
    ExperimentConfig,
    ExperimentResult,
    InjectionSpec,
    MetricSummary,
    confusion,
    inject,
    metrics,
    naive_baseline,
    run_experiment,
)
from .fgn import (
    FgnSampler,
    LrdModel,
    TimeSeries,
    estimate_hurst,
    fbm_cov,
    fgn_acf,
    synthesize_fgn,
)
from .pyramid import Pyramid, ScaleConfig, StreamState, build_nowa, build_swa
from .seeding import subseed, substream
from .thresholds import (
    ThresholdQuery,
    ThresholdResult,
    asymptotic_threshold,
    compute_threshold,
    cross_scale_corr,
    improved_threshold,
    power_gap,
    power_single_scale,
    power_two_scale,
    scale_cov_matrix,
    single_scale_threshold,
    two_scale_expansion,
)

__version__ = "0.1.0"
