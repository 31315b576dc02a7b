"""Outside-in tracing of `skregion`: spans at each module's public entry points.

The tracer wraps the module attributes that callers actually look up (a
function imported by name into another module is replaced in every
`skregion` module that holds it) and the methods of the core classes.  Each
thread keeps its own span stack; a traced thread pool hands the submitting
span's path to its worker threads, so work in the region pool is attributed
to the `region.enumerate` span that started it.  Spans are aggregated per
path as (calls, total time, self time) rather than stored one per call, so
that hot leaves such as `JointPmf.entropy` cost a few dictionary updates.

Self time is a span's duration minus the time of its child spans on the same
thread.  Work handed to a pool thread is recorded under the caller's path but
is not subtracted from the caller's self time, which therefore includes the
time spent waiting for the pool.
"""

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

# (module, attribute, span name): plain functions, patched wherever imported.
FUNCTIONS = (
    ("skregion.pmf", "cond_mutual_information", "pmf.cmi"),
    ("skregion.pmf", "iid_extension", "pmf.iid_extension"),
    ("skregion.region", "enumerate_region", "region.enumerate"),
    ("skregion.region", "lattice_channels", "region.lattice_channels"),
    ("skregion.region", "forward_inner_point", "region.point_eval"),
    ("skregion.region", "forward_outer_point", "region.point_eval"),
    ("skregion.region", "backward_inner_point", "region.point_eval"),
    ("skregion.region", "backward_outer_point", "region.point_eval"),
    ("skregion.region", "pareto_frontier", "region.pareto"),
    ("skregion.cases", "case3_region", "cases.case3"),
    ("skregion.cases", "diagnose", "cases.diagnose"),
    ("skregion.cases", "region_gap", "cases.region_gap"),
    ("skregion.codec", "build_forward_codebooks", "codec.codebook_build"),
    ("skregion.codec", "build_backward_codebooks", "codec.codebook_build"),
    ("skregion.codec", "forward_encode", "codec.encode"),
    ("skregion.codec", "backward_encode", "codec.encode"),
    ("skregion.codec", "forward_decode", "codec.decode"),
    ("skregion.codec", "backward_decode", "codec.decode"),
    ("skregion.codec", "wiretap_decode", "codec.decode"),
    ("skregion.sim", "run_trials", "sim.run_trials"),
    ("skregion.sim", "sample_sources", "sim.sample"),
    ("skregion.sim", "exact_report", "sim.exact_report"),
    ("skregion.sim", "_encoder_outcomes_forward", "sim.encoder_outcomes"),
    ("skregion.sim", "_encoder_outcomes_backward", "sim.encoder_outcomes"),
    ("skregion.cli", "load_distribution", "cli.parse"),
    ("skregion.cli", "build_parser", "cli.args"),
    ("skregion.cli", "_json_text", "cli.json"),
    ("skregion.cli", "_atomic_write", "cli.write"),
)

# (module, class, attribute, span name): methods, patched on the class.
METHODS = (
    ("skregion.pmf", "JointPmf", "__init__", "pmf.init"),
    ("skregion.pmf", "JointPmf", "marginalize", "pmf.marginalize"),
    ("skregion.pmf", "JointPmf", "entropy", "pmf.entropy"),
    ("skregion.pmf", "JointPmf", "extend", "pmf.extend"),
    ("skregion.region", "AuxSystem", "forward", "region.aux_build"),
    ("skregion.region", "AuxSystem", "backward", "region.aux_build"),
    ("skregion.codec", "JointTypicalityTest", "__init__", "codec.typicality_test"),
    ("skregion.codec", "JointTypicalityTest", "mask", "codec.mask"),
    ("skregion.codec", "JointTypicalityTest", "pair_mask", "codec.pair_mask"),
)

# Modules whose `ThreadPoolExecutor` is replaced by the attributing pool.
POOLS = ("skregion.region", "skregion.sim")


# -- counters recorded at span boundaries ------------------------------------

def _entropy_bytes(counters, args, kwargs, result):
    # computed, not measured: bytes of the table the entropy is summed over
    pmf = args[0]
    names = args[1] if len(args) > 1 else kwargs.get("names")
    if names is None:
        counters["pmf.entropy.bytes"] += pmf.table.nbytes
        return
    keep = set(names)
    if not keep:
        return  # the empty set's entropy is 0 without a table
    cells = 1
    for v in pmf.variables:
        if v.name in keep:
            cells *= v.cardinality
    counters["pmf.entropy.bytes"] += 8 * cells


def _mask_counts(counters, args, kwargs, result):
    counters["codec.mask.candidates"] += len(args[2])
    counters["codec.mask.hits"] += int(result.sum())


def _pair_mask_counts(counters, args, kwargs, result):
    counters["codec.pair_mask.candidates"] += result.size
    counters["codec.pair_mask.hits"] += int(result.sum())


def _region_counts(calls, counters, args, kwargs, result):
    calls.append((args, kwargs))  # replayed serially for region.enumerate.serial_s
    counters["region.points.evaluated"] += result.meta["evaluated"]
    counters["region.points.rejected"] += result.meta["rejected"]
    counters["region.frontier.vertices"] += len(result.frontier)


def _case3_counts(counters, args, kwargs, result):
    meta = result.meta
    counters["cases.case3.evaluated"] += meta["evaluated"]
    counters["cases.case3.kept"] += (
        meta["evaluated"] - meta["chain_rejected"] - meta["consequence_rejected"])


def _codebook_size(counters, args, kwargs, result):
    counters["codec.codebook.size"] += sum(cb.size for cb in result)


def _block_count(counters, args, kwargs, result):
    counters["sim.exact.blocks"] += len(result[0])


def _json_bytes(counters, args, kwargs, result):
    counters["cli.json.bytes"] += len(result.encode("utf-8"))


HOOKS = {
    "pmf.entropy": _entropy_bytes,
    "codec.mask": _mask_counts,
    "codec.pair_mask": _pair_mask_counts,
    "cases.case3": _case3_counts,
    "codec.codebook_build": _codebook_size,
    "sim.encoder_outcomes": _block_count,
    "cli.json": _json_bytes,
}

class _ThreadState:
    __slots__ = ("stack", "stats", "counters")

    def __init__(self, base_path):
        self.stack = [[base_path, 0.0]]          # frames: [path, child time]
        self.stats = {}                           # path -> [calls, total, self]
        self.counters = defaultdict(int)


class Tracer:
    """Aggregating span recorder; `install` patches `skregion`, `uninstall` undoes it."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patched = []        # (owner, attribute, original value)
        self.missing = []         # targets absent from this version of skregion
        self.enumerate_calls = []  # (args, kwargs) of each enumerate_region call

    # -- per-thread state ----------------------------------------------------

    def _state(self, base_path=()):
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(base_path)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def current_path(self) -> tuple:
        return self._state().stack[-1][0]

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name):
        hook = HOOKS.get(name)
        cpu = name == "region.enumerate"  # also records process CPU time, all threads
        local = self._local
        new_state = self._state
        clock = time.perf_counter
        if name == "region.enumerate":
            hook = functools.partial(_region_counts, self.enumerate_calls)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = getattr(local, "state", None) or new_state()
            stack = state.stack
            parent = stack[-1]
            frame = [parent[0] + (name,), 0.0]
            stack.append(frame)
            c0 = time.process_time() if cpu else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                rec = state.stats.get(frame[0])
                if rec is None:
                    rec = state.stats[frame[0]] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if cpu:
                    state.counters[name + ".cpu_s"] += time.process_time() - c0
            if hook is not None:
                hook(state.counters, args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "skregion" or n.startswith("skregion.")]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            traced = self.wrap(original, name)
            if name == "cli.args":
                traced = self._wrap_parser_factory(traced)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self.wrap(raw.__func__, name)))
            else:
                self._set(cls, attr, self.wrap(raw, name))
        for mod_name in POOLS:
            mod = importlib.import_module(mod_name)
            if vars(mod).get("ThreadPoolExecutor") is not ThreadPoolExecutor:
                self.missing.append(f"{mod_name}.ThreadPoolExecutor")
                continue
            self._set(mod, "ThreadPoolExecutor", self._pool_class())

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap_parser_factory(self, traced_factory):
        # argument parsing happens in the parser the factory returns
        wrap = self.wrap

        @functools.wraps(traced_factory)
        def factory(*args, **kwargs):
            parser = traced_factory(*args, **kwargs)
            parser.parse_args = wrap(parser.parse_args, "cli.args")
            return parser

        return factory

    def _pool_class(self):
        tracer = self

        class AttributingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                path = tracer.current_path()

                def run(*a, **k):
                    stack = tracer._state(path).stack
                    stack.append([path, 0.0])
                    try:
                        return fn(*a, **k)
                    finally:
                        stack.pop()

                return super().submit(run, *args, **kwargs)

        return AttributingPool

    # -- results -------------------------------------------------------------

    def merged(self) -> tuple:
        """(stats by path, counters), summed over every thread."""
        stats = {}
        counters = defaultdict(int)
        with self._lock:
            states = list(self._states)
        for state in states:
            for path, (calls, total, self_s) in state.stats.items():
                rec = stats.setdefault(path, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
            for key, value in state.counters.items():
                counters[key] += value
        return stats, counters



# -- per-layer metrics -------------------------------------------------------

# Spans reported as `<span>.calls` and `<span>.self_s`.
COUNTED = (
    "pmf.entropy", "pmf.marginalize", "pmf.init", "pmf.extend", "pmf.cmi",
    "region.aux_build", "region.point_eval",
    "codec.mask", "codec.pair_mask", "codec.encode", "codec.decode",
)
# Spans reported by self time only.
SELF_TIMED = ("sim.run_trials", "sim.exact_report")
# Spans reported by total time, as `<span>.s`.
TIMED = (
    "pmf.iid_extension",
    "region.enumerate", "region.lattice_channels", "region.pareto",
    "cases.case3", "cases.diagnose", "cases.region_gap",
    "codec.codebook_build", "sim.sample",
    "cli.parse", "cli.args", "cli.json", "cli.write",
)
# Counters reported as they were recorded.
COUNTERS = (
    "pmf.entropy.bytes", "region.enumerate.cpu_s",
    "region.points.evaluated", "region.points.rejected", "region.frontier.vertices",
    "cases.case3.evaluated", "codec.codebook.size", "codec.mask.candidates",
    "codec.pair_mask.candidates", "sim.exact.blocks", "cli.json.bytes",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict, counters: dict) -> dict:
    """Per-layer metrics from merged span statistics and counters.

    A span nested inside a span of the same name adds its calls and self time
    but not its total time, which its ancestor already covers.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    for path, (n, t, s) in stats.items():
        name = path[-1]
        calls[name] += n
        self_s[name] += s
        if name not in path[:-1]:
            total[name] += t
    out = {}
    for name in COUNTED:
        out[name + ".calls"] = calls[name]
        out[name + ".self_s"] = self_s[name]
    for name in SELF_TIMED:
        out[name + ".self_s"] = self_s[name]
    for name in TIMED:
        out[name + ".s"] = total[name]
    for key in COUNTERS:
        out[key] = counters.get(key, 0.0)
    out["codec.typicality_test.builds"] = calls["codec.typicality_test"]
    out["codec.typicality_test.self_s"] = self_s["codec.typicality_test"]
    out["cases.case3.kept_ratio"] = _ratio(counters.get("cases.case3.kept", 0.0),
                                           counters.get("cases.case3.evaluated", 0.0))
    out["codec.mask.hit_ratio"] = _ratio(counters.get("codec.mask.hits", 0.0),
                                         counters.get("codec.mask.candidates", 0.0))
    out["codec.pair_mask.hit_ratio"] = _ratio(
        counters.get("codec.pair_mask.hits", 0.0),
        counters.get("codec.pair_mask.candidates", 0.0))
    return out


def format_tree(stats: dict) -> str:
    """The span tree, one line per path: calls, total and self seconds."""
    lines = [f"{'span':<60} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
    for path in sorted(stats):
        n, t, s = stats[path]
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(f"{label:<60} {n:>9} {t:>10.4f} {s:>10.4f}")
    return "\n".join(lines)
