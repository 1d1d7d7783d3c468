"""coinfactory: exact simulation of new coins from old ones.

The package turns a stream of tosses from a coin of unknown bias p into
a single toss of bias f(p), exactly, with machinery for certifying how
fast such simulations stop. Envelope schedules drive the core engine;
plans compose transformations; the verify module supplies exhaustive
oracles and Monte Carlo harnesses; lang compiles arithmetic expressions
in p straight to runnable plans.
"""

from .coins import CoinSource, GeneratorSource, TapeSource, load_tape, mix_seed, save_tape
from .combinators import (
    CallbackCoeffs,
    ConstantCoeffs,
    FactoryPlan,
    PlanBounds,
    average,
    bernstein_plan,
    bounds,
    complement,
    constant_plan,
    difference_plan,
    double_plan,
    envelope_plan,
    identity_plan,
    load_plan,
    plan_bias_interval,
    plan_hash,
    plan_to_json,
    product,
    quotient_plan,
    resolve_schedule_ref,
    run_plan,
    save_plan,
    scalar_mul_plan,
    series_general_plan,
    series_plan,
    sum_plan,
    von_neumann_bit,
    with_range,
)
from .engine import (
    Decision,
    EnvelopeSchedule,
    EnvelopeValues,
    OutcomeRecord,
    RankContext,
    ValidationReport,
    Violation,
    decide,
    dump_envelope_csv,
    envelope_eval,
    simulate,
    validate_schedule,
    word_lexrank,
)
from .errors import (
    BackendRequired,
    CoinFactoryError,
    CompileBlocked,
    DepthTooLarge,
    DivergenceRisk,
    ExponentNotFound,
    ExprSyntaxError,
    InsufficientTail,
    InvalidParams,
    InvalidSchedule,
    MarginViolated,
    SourceExhausted,
    Undecided,
    UnsupportedForTape,
)
from .lang import (
    CompileDiagnostics,
    Diagnostic,
    Interval,
    analyze_bounds,
    compile_to_plan,
    parse,
    unparse,
)
from .numerics import (
    DYADIC_BITS,
    binom,
    ceil_frac_mul,
    comb,
    dyadic_sqrt_lower,
    dyadic_sqrt_upper,
    exp_neg_upper,
    floor_frac_mul,
    rational_sin,
)
from .schedules import (
    MODE_C2,
    MODE_LIPSCHITZ,
    ContinuousParams,
    DoublingParams,
    HomogeneousPoly,
    SmoothnessParams,
    alpha_beta_doubling,
    continuous_schedule,
    corrupt_monomial_fixture,
    doubling_raw_schedule,
    doubling_schedule,
    monomial_schedule,
    polya_exponent,
    smooth_schedule,
)
from .verify import (
    FeasibilityResult,
    HypergeomSpec,
    SimulationReport,
    TailFit,
    bernstein_eval,
    feasibility_check,
    hypergeom_pmf,
    monte_carlo,
    oracle_enumerate,
    report_from_json,
    report_to_json,
    save_report,
    tail_profile,
)
from .walk import WalkConfig, approx_double_bit, reflection_count, walk_bias_exact, walk_error_bound

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
