"""Periodic score functions for attention, with gradients and analysis."""

from .scorefn import (
    ALL_KINDS,
    COS_MAX,
    DegenerateRow,
    DenominatorNearZero,
    JacobianMatrix,
    NonFiniteDenominator,
    NonFiniteInput,
    PoleProximity,
    SIN2_MAX,
    SIN2_MAX_SHIFTED,
    SIN_MAX,
    SIN_MAX_CONSTANT,
    SIN_SOFTMAX,
    SIREN_MAX,
    SM_SOFTMAX,
    SM_TAYLOR_SOFTMAX,
    SOFTMAX,
    TAYLOR_SOFTMAX,
    ScoreError,
    ScoreFunctionKind,
    ScoreRows,
    finite_diff_jacobian,
    jacobian,
    scores,
)
from .analysis import (
    CurveSeries,
    ExtremumInterval,
    SaturationReport,
    cosmax_extremum_interval,
    extremum_vs_m_curve,
    filter_gain,
    gradient_curve,
    prenorm_gradient_curve,
    saturation_fraction,
    sin2max_extremum_location,
    sinmax_constant_expected_gradient,
    sinmax_constant_expected_score,
    softmax_extreme_gradient,
    submersion_curve,
)
from .autodiff import Tensor, cross_entropy, no_grad, parameter
from .model import (
    AttentionConfig,
    BreakdownSignal,
    DemoConfig,
    DemoModel,
    build_demo,
)
from .harness import (
    AdamSpec,
    Cifar100Spec,
    GradientHistogram,
    SyntheticSpec,
    TrainConfig,
    TrainRunLog,
    load_cifar100,
    make_synthetic,
    read_run_log,
    train,
    write_run_log,
)

__all__ = [name for name in dir() if not name.startswith("_")]
