"""Outside-in tracing of the sparseobs layers.

Each public function of the traced layers is replaced, at every module that
looks it up, by a wrapper that records a span: name, start, end, parent span
and trial id, plus a small note taken from the arguments or the result (ADMM
iterations, supports scanned, ...).  Spans stay in memory until the run ends.
Nothing under src/ changes: the wrappers are installed from here and removed
again when the traced run finishes.

Installation fails loudly when a call site no longer resolves to the function
its defining module exports, or when a public binding of a traced function
appears at a site this table does not know, so a refactor cannot silently
route work around a wrapper.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from sparseobs import certify, harness, kernels, model, ode, recover, rip

# modules searched for bindings of traced functions; the package namespace and
# the CLI only re-export them for users and do no work in the workloads
_LAYER_MODULES = (harness, rip, certify, ode, recover, kernels, model)


def _admm_note(iterations_at):
    def note(args, result):
        iterations = int(result[iterations_at])
        # args[6] is max_iter for both ADMM kernels
        return {"iterations": iterations, "cap_hit": int(iterations >= int(args[6]))}

    return note


def _rip_note(args, result):
    return {"supports": int(result.supports_examined)}


def _recover_note(args, result):
    return {"iterations": int(result.iterations)}


def _oracle_note(args, result):
    return {"supports": int(result.iterations), "kind": args[0].system.kind}


# traced name -> (defining module, attribute, modules that look the name up, note)
TRACED = {
    "harness.run_trial": (harness, "run_trial", (harness,), None),
    "harness.gen_gaussian_matrix": (harness, "gen_gaussian_matrix", (harness,), None),
    "rip.operator_norm": (rip, "operator_norm", (rip, harness, certify), None),
    "rip.rip_constant_exact": (rip, "rip_constant_exact", (rip, harness), _rip_note),
    "certify.recovery_constants": (certify, "recovery_constants", (certify, harness), None),
    "certify.recovery_error_bound": (
        certify,
        "recovery_error_bound",
        (certify, harness),
        None,
    ),
    "ode.integrate": (ode, "integrate", (ode, harness, certify, recover), None),
    "ode.flow_with_jacobian": (ode, "flow_with_jacobian", (ode, recover), None),
    "recover.solve_weighted_bpdn": (recover, "solve_weighted_bpdn", (recover,), None),
    "recover.recover_initial_state": (
        recover,
        "recover_initial_state",
        (recover, harness),
        _recover_note,
    ),
    "recover.l0_oracle": (recover, "l0_oracle", (recover,), _oracle_note),
    "kernels.rk4_path": (kernels, "rk4_path", (kernels,), None),
    "kernels.rk4_flow_jacobian": (kernels, "rk4_flow_jacobian", (kernels,), None),
    "kernels.admm_lasso": (kernels, "admm_lasso", (kernels,), _admm_note(2)),
    "kernels.admm_basis_pursuit": (kernels, "admm_basis_pursuit", (kernels,), _admm_note(3)),
    "kernels.rip_scan": (kernels, "rip_scan", (kernels,), None),
}

ORACLE_KINDS = ("zero", "linear", "tanh_saturated")


class TraceError(RuntimeError):
    """The traced run cannot be trusted; the benchmark stops without a result."""


class Tracer:
    """Span recorder.  A span is the list
    [name, start, end, parent index, trial id, note]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.trial = None
        self._installed = []

    def take(self):
        """The spans recorded so far; recording continues into a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn, note):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.trial, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    def install(self):
        """Replace every traced function at each of its call sites."""
        originals = {}
        for name, (home, attr, sites, note) in TRACED.items():
            fn = getattr(home, attr, None)
            if fn is None:
                raise TraceError(f"{name}: {home.__name__} no longer defines {attr}")
            originals[id(fn)] = name
            for site in sites:
                bound = getattr(site, attr, None)
                if bound is not fn:
                    raise TraceError(
                        f"{name}: {site.__name__}.{attr} does not resolve to "
                        f"{home.__name__}.{attr}"
                    )
        for module in _LAYER_MODULES:
            for attr, value in vars(module).items():
                name = originals.get(id(value))
                if name is None or attr.startswith("_"):
                    continue
                if module not in TRACED[name][2] or attr != TRACED[name][1]:
                    raise TraceError(
                        f"{module.__name__}.{attr} binds {name} but is not a traced call site"
                    )
        for name, (home, attr, sites, note) in TRACED.items():
            fn = getattr(home, attr)
            wrapper = self._wrap(name, fn, note)
            for site in sites:
                setattr(site, attr, wrapper)
                self._installed.append((site, attr, fn))

    def uninstall(self):
        for site, attr, fn in reversed(self._installed):
            setattr(site, attr, fn)
        self._installed = []


def self_times(spans):
    """Per-span self time: duration minus the time covered by its children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - child[i] for i, span in enumerate(spans)]


def work_counts(spans):
    """Deterministic work done: calls per traced function plus the summed
    counters from the notes.  Two runs of one seed must agree exactly."""
    counts = Counter()
    for name, _, _, _, _, note in spans:
        counts[f"{name}.calls"] += 1
        if note:
            for key, value in note.items():
                if key != "kind":
                    counts[f"{name}.{key}"] += value
    return dict(sorted(counts.items()))


def layer_metrics(spans, self_s):
    """The per-layer span metrics of BENCHMARK.json from one traced pass and
    its spans' self times."""
    calls = Counter()
    own = defaultdict(float)
    for span, s in zip(spans, self_s):
        calls[span[0]] += 1
        own[span[0]] += s

    def note_sum(name, key):
        return sum((span[5] or {}).get(key, 0) for span in spans if span[0] == name)

    def parent_name(span):
        return spans[span[3]][0] if span[3] >= 0 else None

    lasso_parents = {
        span[3] for span in spans if span[0] == "kernels.admm_lasso" and span[3] >= 0
    }
    oracle_flows = sum(
        1
        for span in spans
        if span[0] == "ode.flow_with_jacobian" and parent_name(span) == "recover.l0_oracle"
    )
    supports_fitted = note_sum("recover.l0_oracle", "supports")

    out = {
        "ode.flow_with_jacobian.calls": calls["ode.flow_with_jacobian"],
        "ode.flow_with_jacobian.self_s": own["ode.flow_with_jacobian"],
        "kernels.rk4_flow_jacobian.calls": calls["kernels.rk4_flow_jacobian"],
        "kernels.rk4_flow_jacobian.self_s": own["kernels.rk4_flow_jacobian"],
        "recover.oracle_flow_evals_per_support": oracle_flows / max(supports_fitted, 1),
        "ode.integrate.calls": calls["ode.integrate"],
        "ode.integrate.self_s": own["ode.integrate"],
        "kernels.rk4_path.calls": calls["kernels.rk4_path"],
        "kernels.rk4_path.self_s": own["kernels.rk4_path"],
        "recover.line_search_integrations": sum(
            1
            for span in spans
            if span[0] == "ode.integrate" and parent_name(span) == "recover.recover_initial_state"
        ),
        "kernels.admm_lasso.calls": calls["kernels.admm_lasso"],
        "kernels.admm_lasso.iterations": note_sum("kernels.admm_lasso", "iterations"),
        "kernels.admm_lasso.self_s": own["kernels.admm_lasso"],
        "recover.bisection_steps_per_solve": calls["kernels.admm_lasso"]
        / max(len(lasso_parents), 1),
        "recover.solve_weighted_bpdn.calls": calls["recover.solve_weighted_bpdn"],
        "recover.solve_weighted_bpdn.self_s": own["recover.solve_weighted_bpdn"],
        "recover.admm_cap_hits": note_sum("kernels.admm_lasso", "cap_hit")
        + note_sum("kernels.admm_basis_pursuit", "cap_hit"),
        "kernels.admm_basis_pursuit.calls": calls["kernels.admm_basis_pursuit"],
        "kernels.admm_basis_pursuit.iterations": note_sum("kernels.admm_basis_pursuit", "iterations"),
        "kernels.admm_basis_pursuit.self_s": own["kernels.admm_basis_pursuit"],
        "rip.rip_constant_exact.calls": calls["rip.rip_constant_exact"],
        "rip.rip_constant_exact.self_s": own["rip.rip_constant_exact"],
        "kernels.rip_scan.self_s": own["kernels.rip_scan"],
        "rip.supports_scanned": note_sum("rip.rip_constant_exact", "supports"),
        "rip.operator_norm.calls": calls["rip.operator_norm"],
        "rip.operator_norm.self_s": own["rip.operator_norm"],
        "certify.calls": calls["certify.recovery_constants"]
        + calls["certify.recovery_error_bound"],
        "certify.self_s": own["certify.recovery_constants"] + own["certify.recovery_error_bound"],
        "harness.gen_gaussian_matrix.self_s": own["harness.gen_gaussian_matrix"],
        "harness.run_trial.calls": calls["harness.run_trial"],
        "harness.run_trial.self_s": own["harness.run_trial"],
        "recover.recover_initial_state.calls": calls["recover.recover_initial_state"],
        "recover.recover_initial_state.self_s": own["recover.recover_initial_state"],
        "recover.recover_initial_state.outer_iterations": note_sum(
            "recover.recover_initial_state", "iterations"
        ),
        "recover.l0_oracle.calls": calls["recover.l0_oracle"],
        "recover.l0_oracle.self_s": own["recover.l0_oracle"],
        "recover.l0_oracle.supports_fitted": supports_fitted,
    }
    # inclusive and self time of the oracle per right-hand-side kind
    by_kind_total = defaultdict(float)
    by_kind_self = defaultdict(float)
    for span, s in zip(spans, self_s):
        if span[0] == "recover.l0_oracle" and span[5] is not None:
            by_kind_total[span[5]["kind"]] += span[2] - span[1]
            by_kind_self[span[5]["kind"]] += s
    for kind in ORACLE_KINDS:
        out[f"recover.l0_oracle.{kind}.total_s"] = by_kind_total[kind]
        out[f"recover.l0_oracle.{kind}.self_s"] = by_kind_self[kind]
    return out
