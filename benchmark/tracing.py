"""In-memory span recorder for the traced run.

The tracer wraps public functions of the branchspec modules from the
outside: it replaces module attributes (and the copies other modules
imported by name) with wrappers that record one span per call.  Spans
are kept in flat arrays and written out when the run ends.  Jobs run on
one thread, so the children of a span never overlap and a span's self
time is its duration minus the sum of its children's durations.
"""

import array
import gzip
import time

import numpy as np

# One entry per traced function: (span name, [(module, attribute path)],
# measure).  Every (module, attribute) pair that holds a reference to the
# function is patched, so calls through a name imported elsewhere are
# seen too.  `measure(args, kwargs, result)` returns two integers stored
# with the span (points, extra); None means (0, 0).


def _size_arg(i, key):
    def measure(args, kwargs, result):
        value = args[i] if len(args) > i else kwargs[key]
        return int(np.size(value)), 0
    return measure


def _trace_gamma_measure(args, kwargs, result):
    return len(result.xs), len(result.gaps)


def _eigensolve_measure(args, kwargs, result):
    n = int(args[0].shape[0])
    return n ** 3, 0


def _zeros_measure(args, kwargs, result):
    return len(result), 0


TARGETS = [
    ("zerocount.locate_zeros",
     [("zerocount", "locate_zeros"), ("cli", "locate_zeros")], _zeros_measure),
    ("zerocount.winding_count",
     [("zerocount", "winding_count"), ("cli", "winding_count")], None),
    ("zerocount.match_bijection",
     [("zerocount", "match_bijection"), ("cli", "match_bijection")], None),
    ("quantization.eval_G", [("quantization", "eval_G")], _size_arg(0, "mu")),
    ("quantization.bohr_sommerfeld_solve",
     [("quantization", "bohr_sommerfeld_solve"),
      ("cli", "bohr_sommerfeld_solve")], None),
    ("specfun.log_gamma",
     [("specfun", "log_gamma"), ("quantization", "log_gamma"),
      ("skeleton", "log_gamma")],
     _size_arg(0, "z")),
    ("skeleton.assemble", [("skeleton", "assemble"), ("cli", "assemble")],
     None),
    ("skeleton.trace_gamma", [("skeleton", "trace_gamma")],
     _trace_gamma_measure),
    ("skeleton.find_crossings", [("skeleton", "find_crossings")], None),
    ("skeleton.curve_residual",
     [("skeleton", "curve_residual"), ("cli", "curve_residual")],
     _size_arg(1, "mu")),
    ("skeleton.Body.contains", [("skeleton", "Body.contains")], None),
    ("schrodinger.discretize", [("schrodinger", "discretize")], None),
    ("schrodinger.eigensolve", [("schrodinger", "eigensolve")],
     _eigensolve_measure),
    ("schrodinger.spurious_filter", [("schrodinger", "spurious_filter")],
     None),
    ("flowavg.classify_critical_points",
     [("flowavg", "classify_critical_points")], None),
    ("flowavg.correlation_C", [("flowavg", "correlation_C")], None),
    ("flowavg.grid_verify", [("flowavg", "grid_verify")], None),
]


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans (name, start, end, parent, job, points, extra, error).

    Recording happens only while `enabled` is true; the wrappers stay
    installed until `uninstall`.
    """

    def __init__(self):
        self.enabled = False
        self.job = -1
        self.names = []
        self._name_ids = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.job_of = array.array("i")
        self.points = array.array("q")
        self.extra = array.array("q")
        self.error = array.array("b")
        self._stack = []
        self._patched = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job_of.append(self.job)
        self.end.append(0.0)
        self.points.append(0)
        self.extra.append(0)
        self.error.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, measure=None, error_types=()):
        tracer = self
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except error_types:
                tracer.error[idx] = 1
                raise
            finally:
                tracer._close(idx)
            if measure is not None:
                tracer.points[idx], tracer.extra[idx] = \
                    measure(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, modules, commands, error_types):
        """Patch every target; `modules` maps short names to modules and
        `commands` is the CLI's command table, patched entry by entry."""
        for name, sites, measure in TARGETS:
            first_owner, first_attr = _resolve(modules[sites[0][0]],
                                               sites[0][1])
            original = getattr(first_owner, first_attr)
            wrapped = self.wrap(name, original, measure, error_types)
            for mod, path in sites:
                owner, attr = _resolve(modules[mod], path)
                if getattr(owner, attr) is not original:
                    raise RuntimeError(f"{mod}.{path} is not {name}")
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        for cmd, fn in list(commands.items()):
            self._patched.append((commands, cmd, fn))
            commands[cmd] = self.wrap(f"cli.{cmd}", fn)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def __len__(self):
        return len(self.start)

    def summary(self, jobs):
        """Per-name totals over the spans of `jobs`: calls, inclusive
        seconds, self seconds, points, extra and error counts."""
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        keep = np.isin(np.asarray(self.job_of), list(jobs))
        names = np.asarray(self.name)
        points = np.asarray(self.points)
        extra = np.asarray(self.extra)
        error = np.asarray(self.error)
        out = {}
        for nid, name in enumerate(self.names):
            m = keep & (names == nid)
            out[name] = {
                "calls": int(m.sum()),
                "s": float(dur[m].sum()),
                "self_s": float(self_s[m].sum()),
                "points": int(points[m].sum()),
                "extra": int(extra[m].sum()),
                "errors": int(error[m].sum()),
            }
        return out

    def write(self, path, job_labels):
        """Write every span as gzipped CSV: index, name, start, end,
        parent, job, points, extra, error."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,job,points,extra,error\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                         f"{self.parent[i]},{job_labels.get(self.job_of[i], '')},"
                         f"{self.points[i]},{self.extra[i]},{self.error[i]}\n")

