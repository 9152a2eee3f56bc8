"""Per-layer tracing of susyq, installed only for the traced pass.

Each wrapper replaces a function at the name its caller looks it up by
(``susyq.cli.validate``, ``susyq.partner.sign_log_det_orders``, ...), so the
untraced pass runs the program exactly as shipped.  A span is a tuple
(operation, layer, name, start, end, parent); spans stay in memory until
the pass ends.  A layer's self time is the duration of its spans minus the
time their child spans cover.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("kummer", "seeds", "wronskian", "partner", "design", "oracle", "cli")

# the per-layer metrics this tracer reports, in output order
COUNTERS = (
    "kummer.calls", "kummer.points",
    "seeds.evals", "seeds.points",
    "wronskian.dets", "wronskian.matrices",
    "partner.calls", "partner.normalize_calls",
    "design.validate_calls", "design.scan_evals", "design.boundary_probes",
    "oracle.sturm_calls", "oracle.sturm_pivots", "oracle.discretize_calls",
    "cli.files_written", "cli.bytes_written",
)


def bump(*names, by=1):
    """Counter hook adding `by` to each named count per call."""

    def count(c, args, out):
        for name in names:
            c[name] += by

    return count


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        self.counts = defaultdict(float)
        self.self_s = defaultdict(float)
        self.seed_keys = set()
        self._stack = []  # [span index, time covered by children]
        self._undo = []

    # --- wrappers -----------------------------------------------------------

    def _wrap(self, fn, layer, count, span):
        tracer = self

        def traced(*args, **kwargs):
            if not span:
                out = fn(*args, **kwargs)
                count(tracer.counts, args, out)
                return out
            frame = [len(tracer.spans), 0.0]
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.self_s[layer] += (t1 - t0) - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += t1 - t0
                tracer.spans[frame[0]] = (tracer.op, layer, fn.__name__, t0, t1, parent)
            if count is not None:
                count(tracer.counts, args, out)
            return out

        return traced

    def patch(self, owner, name, layer, count=None, span=True):
        orig = getattr(owner, name)
        self._undo.append((owner, name, orig))
        setattr(owner, name, self._wrap(orig, layer, count, span))

    def restore(self):
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    # --- layer boundaries ---------------------------------------------------

    def install(self, susyq):
        # the package re-exports a function named `wronskian`, so modules come from importlib
        cli, design, oracle, partner, seeds, wronskian = (
            importlib.import_module(f"susyq.{m}")
            for m in ("cli", "design", "oracle", "partner", "seeds", "wronskian")
        )

        def kummer_count(c, args, out):
            c["kummer.calls"] += 1
            c["kummer.points"] += np.size(args[2])

        for name in ("kummer_m", "kummer_m_deriv"):
            self.patch(seeds, name, "kummer", kummer_count)

        def seed_count(c, args, out):
            seed, x = args[0], np.asarray(args[1])
            c["seeds.evals"] += 1
            c["seeds.points"] += x.size
            digest = hashlib.blake2b(np.ascontiguousarray(x, dtype=float).tobytes(), digest_size=16)
            self.seed_keys.add((seed.epsilon, seed.b1, seed.b2, x.shape, digest.digest()))

        self.patch(seeds.SeedSolution, "scaled_first_two", "seeds", seed_count)
        self.patch(seeds.SeedSolution, "scaled_derivatives", "seeds")
        self.patch(partner, "derivative_table", "seeds")

        def det_count(c, args, out):
            c["wronskian.dets"] += 1
            c["wronskian.matrices"] += int(np.prod(args[0].shape[2:]))

        def scan_count(c, args, out):
            det_count(c, args, out)
            c["design.scan_evals"] += 1

        for owner in (wronskian, partner):
            self.patch(owner, "sign_log_det_orders", "wronskian", det_count)
        self.patch(design, "sign_log_det_orders", "wronskian", scan_count)
        for owner in (wronskian, partner, design):
            self.patch(owner, "scaled_stack", "wronskian")
        self.patch(partner, "log_w_second_deriv", "wronskian")

        partner_count = bump("partner.calls")
        normalize_count = bump("partner.calls", "partner.normalize_calls")
        for owner in (cli, design, susyq):
            for name in ("partner_v", "transformed_eigenfunction", "added_state"):
                if hasattr(owner, name):
                    self.patch(owner, name, "partner", partner_count)
        for owner in (cli, design):
            self.patch(owner, "normalize", "partner", normalize_count)
        self.patch(partner.BaseState, "scaled_derivatives", "partner")

        self.patch(cli, "validate", "design", bump("design.validate_calls"))
        self.patch(cli, "make_plan", "design")
        self.patch(design, "scan_singularities", "design")
        probes = len(design.PROBE_POINTS)
        self.patch(design, "boundary_check", "design", bump("design.boundary_probes", by=probes))

        def sturm_count(c, args, out):
            c["oracle.sturm_calls"] += 1
            c["oracle.sturm_pivots"] += args[0].diag.size

        self.patch(oracle, "sturm_count", "oracle", sturm_count, span=False)
        self.patch(cli, "discretize", "oracle", bump("oracle.discretize_calls"))
        self.patch(cli, "eigenvalues_low", "oracle")
        self.patch(cli, "residual", "oracle")

        def write_count(c, args, out):
            c["cli.files_written"] += 1
            c["cli.bytes_written"] += args[0].stat().st_size

        for name in ("_write_json", "_write_csv"):
            self.patch(cli, name, "cli", write_count, span=False)
        self.patch(cli, "main", "cli")

    # --- results ------------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer figures per round of operations."""
        out = {}
        for name in COUNTERS:
            out[name] = (self.counts[name] / rounds, "count/round")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer] / rounds, "s/round")
        evals = self.counts["seeds.evals"]
        out["seeds.distinct_ratio"] = (len(self.seed_keys) / evals if evals else 1.0, "ratio")
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
