"""Span recording around twobox's public functions, used by the traced run only.

The package's modules bind imported names locally (``scenarios`` calls its
own ``build_projector``, ``engine`` its own ``is_resolution_of_identity``),
so a function is wrapped at every module attribute that holds it, not only
where it is defined. ``uninstall`` puts every original back.

A span is ``(id, name, start_ns, end_ns, parent_id, op_id, self_ns, bytes)``.
Self time is the span's duration minus the time its child spans cover; spans
nest strictly because every workload runs on one thread. ``bytes`` is the
computed size of a dense operator returned by ``build_projector``
(16 bytes per complex entry), 0 elsewhere.
"""

import json
import sys
import time

# (defining module, function, layer name); several functions may share a layer
TARGETS = [
    ("twobox.scenario_io", "parse_scenario_document", "scenario_io.parse"),
    ("twobox.scenario_io", "render_report_json", "scenario_io.render"),
    ("twobox.scenarios", "run_scenario", "scenarios.run_scenario"),
    ("twobox.projectors", "build_projector", "projectors.build_projector"),
    ("twobox.projectors", "build_hamiltonian", "projectors.build_hamiltonian"),
    ("twobox.projectors", "is_hermitian", "projectors.checks"),
    ("twobox.projectors", "idempotency_defect", "projectors.checks"),
    ("twobox.projectors", "is_projector", "projectors.checks"),
    ("twobox.projectors", "are_orthogonal", "projectors.checks"),
    ("twobox.projectors", "is_resolution_of_identity", "projectors.checks"),
    ("twobox.engine", "abl_amplitude", "engine.abl_amplitude"),
    ("twobox.engine", "abl_probabilities", "engine.abl_probabilities"),
    ("twobox.engine", "weak_value", "engine.weak_value"),
    ("twobox.engine", "weak_value_sum", "engine.weak_value_sum"),
    ("twobox.engine", "detailed_probability", "engine.detailed_probability"),
    ("twobox.engine", "global_probability", "engine.global_probability"),
    ("twobox.engine", "transition_element", "engine.transition_element"),
    ("twobox.hilbert", "tensor", "hilbert.tensor"),
    ("twobox.hilbert", "apply", "hilbert.apply"),
    ("twobox.hilbert", "matrix_element", "hilbert.matrix_element"),
    ("twobox.cli", "main", "cli.main"),
]

SIZED = "projectors.build_projector"


class Tracer:
    """Keeps spans in memory; ``op`` tags every span with the running operation."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []  # [span id, child ns] per open span
        self._next_id = 0
        self._saved = []

    def _wrap(self, fn, name):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                size = 16 * result.dim ** 2 if name == SIZED and result is not None else 0
                spans.append((span_id, name, start, end, parent, self.op,
                              duration - frame[1], size))

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span of its own, such as one operation."""
        return self._wrap(fn, name)(*args)

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "twobox" or key.startswith("twobox.")]
        wrappers = {}
        for module_name, attr, layer in TARGETS:
            fn = getattr(sys.modules[module_name], attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, layer))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def adopt(self, path):
        """Append the spans a child process wrote to ``path`` under the open span.

        Both processes read the same system-wide monotonic clock, so the
        adopted start and end times line up with this process's own spans.
        """
        with open(path, encoding="utf-8") as handle:
            foreign = [json.loads(line) for line in handle]
        frame = self._stack[-1]
        offset = self._next_id
        for span_id, name, start, end, parent, _, self_ns, size in foreign:
            if parent is None:
                frame[1] += end - start
                parent = frame[0]
            else:
                parent += offset
            self.spans.append((span_id + offset, name, start, end, parent, self.op,
                               self_ns, size))
            self._next_id = max(self._next_id, span_id + offset + 1)

    def write(self, path):
        """One JSON list per line and span."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
