"""Per-layer metrics of one traced run, computed from its spans.

A span's self time is its duration minus the time its child spans cover.
Calls are nested on one thread, so children never overlap and the self
times of all spans add up to the duration of the root span (``cli.main``).
A layer's inclusive time counts only its outermost spans, so recursion or a
layer calling itself is not counted twice.
"""

from __future__ import annotations

from tracer import MODULES

AUDITS = ("evolution.b_omega_invariance_audit", "evolution.concavity_audit",
          "evolution.virial_check", "evolution.uniform_prefix",
          "evolution.variance_third_difference")


def self_times(spans) -> list[float]:
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans, first_integral_amplitude) -> dict[str, float]:
    """Per-layer values keyed by metric name.

    ``first_integral_amplitude(params)`` is the independent amplitude oracle,
    or None if the package has none; it must be the untraced function, so
    that calling it adds no spans.
    """
    names = [s[0] for s in spans]
    parent = [s[3] for s in spans]
    info = [s[4] or {} for s in spans]
    dur = [s[2] - s[1] for s in spans]
    own = self_times(spans)

    def named(*full):
        return lambda name: name in full

    def in_module(mod):
        return lambda name: module_of(name) == mod

    def outer(pred) -> list[int]:
        found = []
        for i, name in enumerate(names):
            if not pred(name):
                continue
            p = parent[i]
            while p >= 0 and not pred(names[p]):
                p = parent[p]
            if p < 0:
                found.append(i)
        return found

    def total(idx) -> float:
        return float(sum(dur[i] for i in idx))

    def under(idx, pred) -> list[int]:
        """Spans whose direct parent is one of ``idx`` and whose name matches."""
        chosen = set(idx)
        return [i for i, name in enumerate(names)
                if parent[i] in chosen and pred(name)]

    m: dict[str, float] = {}

    solves = outer(named("groundstate.solve_ground_state"))
    shots = outer(named("groundstate.shoot_classify"))
    bracket = outer(named("groundstate.find_bracket"))
    certify = under(solves, lambda n: module_of(n) == "functionals"
                    or n == "groundstate.decay_fit")
    amp_errs = []
    for i in solves:
        if first_integral_amplitude and "amplitude" in info[i]:
            try:
                ref = first_integral_amplitude(info[i]["params"])
            except ValueError:       # the oracle closes only for N = 1
                continue
            amp_errs.append(abs(info[i]["amplitude"] - ref) / ref)
    resample = outer(named("groundstate.GroundStateResult.resample"))
    m.update({
        "groundstate.solves": len(solves),
        "groundstate.solve_s": total(solves),
        "groundstate.shots": len(shots),
        "groundstate.shoot_s": total(shots),
        "groundstate.bracket_shots": len(under(
            bracket, named("groundstate.shoot_classify"))),
        "groundstate.bracket_s": total(bracket),
        "groundstate.polish_s": float(sum(own[i] for i in solves)),
        "groundstate.certify_s": total(certify),
        "groundstate.max_residual": max(
            (info[i].get("residual", 0.0) for i in solves), default=0.0),
        "groundstate.max_amp_rel_err": max(amp_errs, default=0.0),
        "groundstate.resample_calls": len(resample),
        "groundstate.resample_s": total(resample),
    })

    evolves = outer(named("evolution.evolve"))
    ffts = outer(in_module("fft"))
    records = outer(named("evolution._record"))
    m.update({
        "evolution.evolve_s": total(evolves),
        "evolution.fft_calls": len(ffts),
        "evolution.fft_s": total(ffts),
        "evolution.fft_bytes_computed": sum(
            info[i] if isinstance(info[i], int) else 0 for i in ffts),
        "evolution.record_calls": len(records),
        "evolution.record_s": total(records),
        "evolution.self_s": float(sum(own[i] for i in evolves)),
        "evolution.audit_s": total(outer(named(*AUDITS))),
        "evolution.max_mass_drift": max(
            (info[i].get("mass_drift", 0.0) for i in evolves), default=0.0),
        "evolution.max_energy_drift": max(
            (info[i].get("energy_drift", 0.0) for i in evolves), default=0.0),
    })

    func = outer(in_module("functionals"))
    m.update({"functionals.calls": len(func), "functionals.s": total(func)})

    candidates = sum(info[i].get("len", 0)
                     for i in outer(named("lemma_lab.perturbed_profiles")))
    kept = sum(1 for i in outer(named("lemma_lab.key_estimate_check"))
               if "error" not in info[i])
    m.update({
        "lemma_lab.sign_suite_s": total(outer(named("lemma_lab.sign_suite"))),
        "lemma_lab.profiles_s": total(outer(named("lemma_lab.perturbed_profiles"))),
        "lemma_lab.candidates": candidates,
        "lemma_lab.kept": kept,
        "lemma_lab.kept_ratio": kept / candidates if candidates else 0.0,
        "lemma_lab.keyest_s": total(outer(named(
            "lemma_lab.check_hypotheses", "lemma_lab.key_estimate_check"))),
    })

    m.update({
        "stability.classify_s": total(outer(named("stability.classify"))),
        "stability.embed_s": total(outer(named(
            "stability.make_scaled_data", "stability.embed_on_line"))),
        "cli.io_s": total(outer(named("cli.write_csv", "cli.write_summary"))),
    })

    # params does no measurable work; its self time is only in the sum
    for mod in [mod for mod in MODULES if mod != "params"] + ["fft"]:
        m[f"selftime.{mod}_s"] = float(sum(
            own[i] for i, name in enumerate(names) if module_of(name) == mod))
    m["trace.self_sum_s"] = float(sum(own))
    m["trace.spans"] = len(spans)
    return m
