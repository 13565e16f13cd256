"""Per-layer tracing of rotframes from outside the package.

``Tracer.installed()`` replaces the module attributes the layers call
through with wrappers that record spans or counts, and restores the
originals on exit. No file of the package changes. A span holds a name,
start, end, parent span and op id; spans stay in memory (in flat arrays)
until ``layer_metrics`` turns them into per-layer counts, busy times and
self times (a span's duration minus its children's).
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter

import numpy as np

from rotframes import cli, congruences, kinematics, tensors, transport
from rotframes.errors import ConstraintDriftError, DomainError

# (owner, attribute, span name) of every timed boundary.
SPANS = (
    (cli, "main", "cli.main"),
    (cli, "build_parser", "cli.build_parser"),
    (cli, "compute_row", "cli.compute_row"),
    (cli, "_render_csv", "cli.render"),
    (cli, "_render_json", "cli.render"),
    (cli, "vorticity_scalar", "kinematics.vorticity_scalar"),
    (cli, "omega_closed_form", "kinematics.omega_closed_form"),
    (cli, "precession_per_revolution", "transport.precession_per_revolution"),
    (cli, "measure_precession_angle", "transport.measure_precession_angle"),
    (kinematics, "kinematic_sample", "kinematics.kinematic_sample"),
    (kinematics, "_fd_matrix", "kinematics.fd_matrix"),
    # a field evaluation: the built-in path, then a user VelocityField
    (kinematics, "_u_components", "congruences.u"),
    (congruences, "_u_components", "congruences.u"),
    (transport, "fw_transport", "transport.fw_transport"),
    (transport, "fw_rk4", "transport.fw_rk4"),
)

# (owner, attribute, counter name) of boundaries that are only counted.
COUNTS = (
    (tensors.Event, "__post_init__", "tensors.events"),
    (kinematics, "metric_diag", "tensors.metric_diag"),
    (transport, "metric_diag", "tensors.metric_diag"),
)

# name -> unit of every metric ``layer_metrics`` returns.
UNITS = {
    "cli.calls": "count",
    "cli.exit_nonzero": "count",
    "cli.exceptions": "count",
    "cli.parse_s": "s",
    "cli.parse_share": "ratio",
    "cli.self_s": "s",
    "cli.compute_row.calls": "count",
    "cli.compute_row_s": "s",
    "cli.marked_rows": "count",
    "cli.render_s": "s",
    "cli.bytes_out": "bytes",
    "kinematics.vorticity_scalar.calls": "count",
    "kinematics.vorticity_scalar_s": "s",
    "kinematics.kinematic_sample.calls": "count",
    "kinematics.kinematic_sample_s": "s",
    "kinematics.jacobians": "count",
    "kinematics.jacobian_s": "s",
    "kinematics.jacobians_per_result": "ratio",
    "kinematics.field_evals": "count",
    "kinematics.field_evals_per_result": "ratio",
    "kinematics.closed_form_s": "s",
    "kinematics.domain_errors": "count",
    "kinematics.other_errors": "count",
    "congruences.u_s": "s",
    "tensors.events": "count",
    "tensors.metric_diag.calls": "count",
    "transport.report_s": "s",
    "transport.calls": "count",
    "transport.steps": "count",
    "transport.samples": "count",
    "transport.kernel_s": "s",
    "transport.kernel_share": "ratio",
    "transport.ns_per_step": "ns",
    "transport.us_per_sample": "us",
    "transport.setup_s": "s",
    "transport.angle_s": "s",
    "transport.max_drift": "ratio",
    "transport.drift_errors": "count",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "ratio",
}

_KINEMATICS = ("kinematics.vorticity_scalar", "kinematics.omega_closed_form",
               "kinematics.kinematic_sample")


class Tracer:
    """Span and count recorder for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = {}
        self.errors: dict[tuple[str, type], int] = {}

    def _bump(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def span(self, fn, name: str, after=None):
        """Wrap fn so each call records a span; after(args, result) sees results."""
        nid = self.name_id.setdefault(name, len(self.name_id))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self.stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                key = (name, type(exc))
                self.errors[key] = self.errors.get(key, 0) + 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def counter(self, fn, name: str):
        def counted(*args, **kwargs):
            self._bump(name)
            return fn(*args, **kwargs)

        return counted

    # result hooks, run outside the span they belong to

    def _after_main(self, args, code):
        if code != 0:
            self._bump("cli.exit_nonzero")

    def _after_build_parser(self, args, parser):
        parser.parse_args = self.span(parser.parse_args, "cli.parse_args")

    def _after_compute_row(self, args, row):
        if row.status != "ok":
            self._bump("cli.marked_rows")

    def _after_render(self, args, text):
        self._bump("cli.bytes_out", len(text.encode()))

    def _after_fw_rk4(self, args, result):
        record_idx = args[3]
        self._bump("transport.steps", int(record_idx[-1]))
        self._bump("transport.samples", len(record_idx))

    def _after_fw_transport(self, args, traj):
        drift = max(self.counts.get("transport.max_drift", 0.0), traj.max_drift)
        self.counts["transport.max_drift"] = drift

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary in SPANS and COUNTS; restore them on exit."""
        hooks = {
            "cli.main": self._after_main,
            "cli.build_parser": self._after_build_parser,
            "cli.compute_row": self._after_compute_row,
            "cli.render": self._after_render,
            "transport.fw_rk4": self._after_fw_rk4,
            "transport.fw_transport": self._after_fw_transport,
        }
        saved = []
        try:
            for owner, attr, name in SPANS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.span(original, name, hooks.get(name)))
            for owner, attr, name in COUNTS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.counter(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def spans(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.start)
        out = {name: (0, 0.0, 0.0) for name in self.names}
        if n == 0:
            return out
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=n)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        for i, label in enumerate(self.names):
            out[label] = (int(calls[i]), float(total[i]), float(self_s[i]))
        return out

    def errors_of(self, names, kind=None, exclude=None) -> int:
        return sum(n for (name, cls), n in self.errors.items()
                   if name in names
                   and (kind is None or issubclass(cls, kind))
                   and (exclude is None or not issubclass(cls, exclude)))


def layer_metrics(tracer: Tracer, wall: float, untraced_wall: float) -> dict:
    """Every metric in UNITS from one traced pass and its untraced twin."""
    s = tracer.spans()
    get = lambda name: s.get(name, (0, 0.0, 0.0))
    c = tracer.counts
    calls = lambda name: get(name)[0]
    total = lambda name: get(name)[1]
    own = lambda name: get(name)[2]
    ratio = lambda a, b: a / b if b else 0.0
    results = calls("kinematics.vorticity_scalar") + calls("kinematics.kinematic_sample")
    kernel_s = total("transport.fw_rk4")
    steps = c.get("transport.steps", 0)
    samples = c.get("transport.samples", 0)
    parse_s = total("cli.build_parser") + total("cli.parse_args")
    return {
        "cli.calls": calls("cli.main"),
        "cli.exit_nonzero": c.get("cli.exit_nonzero", 0),
        "cli.exceptions": tracer.errors_of({"cli.main"}),
        "cli.parse_s": parse_s,
        "cli.parse_share": ratio(parse_s, total("cli.main")),
        "cli.self_s": own("cli.main"),
        "cli.compute_row.calls": calls("cli.compute_row"),
        "cli.compute_row_s": total("cli.compute_row"),
        "cli.marked_rows": c.get("cli.marked_rows", 0),
        "cli.render_s": total("cli.render"),
        "cli.bytes_out": c.get("cli.bytes_out", 0),
        "kinematics.vorticity_scalar.calls": calls("kinematics.vorticity_scalar"),
        "kinematics.vorticity_scalar_s": total("kinematics.vorticity_scalar"),
        "kinematics.kinematic_sample.calls": calls("kinematics.kinematic_sample"),
        "kinematics.kinematic_sample_s": total("kinematics.kinematic_sample"),
        "kinematics.jacobians": calls("kinematics.fd_matrix"),
        "kinematics.jacobian_s": total("kinematics.fd_matrix"),
        "kinematics.jacobians_per_result": ratio(calls("kinematics.fd_matrix"), results),
        "kinematics.field_evals": calls("congruences.u"),
        "kinematics.field_evals_per_result": ratio(calls("congruences.u"), results),
        "kinematics.closed_form_s": total("kinematics.omega_closed_form"),
        "kinematics.domain_errors": tracer.errors_of(_KINEMATICS, kind=DomainError),
        "kinematics.other_errors": tracer.errors_of(_KINEMATICS, exclude=DomainError),
        "congruences.u_s": total("congruences.u"),
        "tensors.events": c.get("tensors.events", 0),
        "tensors.metric_diag.calls": c.get("tensors.metric_diag", 0),
        "transport.report_s": total("transport.precession_per_revolution"),
        "transport.calls": calls("transport.fw_transport"),
        "transport.steps": steps,
        "transport.samples": samples,
        "transport.kernel_s": kernel_s,
        "transport.kernel_share": ratio(kernel_s, wall),
        "transport.ns_per_step": ratio(kernel_s * 1e9, steps),
        "transport.us_per_sample": ratio(kernel_s * 1e6, samples),
        "transport.setup_s": own("transport.fw_transport"),
        "transport.angle_s": own("transport.measure_precession_angle"),
        "transport.max_drift": c.get("transport.max_drift", 0.0),
        "transport.drift_errors": tracer.errors_of({"transport.fw_transport"},
                                                   kind=ConstraintDriftError),
        "trace.spans": len(tracer.start),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead": ratio(wall, untraced_wall) - 1.0,
    }
