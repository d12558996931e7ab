"""Span tracing at the layer boundaries of operadlab, from outside the package.

A boundary is a public function or method of one ``operadlab`` module.
`Tracer.install` replaces it with a wrapper that records one span per call:
span id, parent span id, name, start and end.  Spans are kept in memory and
written out once the run ends (`Tracer.write_spans`).

Functions are rebound under every name that refers to the same function
object in every loaded ``operadlab.*`` module, so a call through a
``from ... import`` alias is traced too.  Methods are replaced on their
class.  Hot inner helpers (``phi1_tree``, ``word_weight``, the tree
helpers of ``operad_core``) are deliberately not boundaries: a span per
call would cost more than the work.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over the spans of that layer.
"""
import importlib
import sys
import time

# (span name, module, attribute path).  A span name is "<layer>.<part>";
# several boundaries may share one span name.
BOUNDARIES = (
    ("cli_report.run", "cli_report", "run"),
    ("cli_report.export", "cli_report", "export"),

    ("associahedra.decompose", "associahedra", "decompose"),
    ("associahedra.boundary", "associahedra", "boundary"),
    ("associahedra.fundamental_class", "associahedra", "fundamental_class"),
    ("associahedra.boundary_fundamental_cycle", "associahedra",
     "boundary_fundamental_cycle"),
    ("associahedra.insert_chain", "associahedra", "insert_chain"),

    ("coalgebra_operad.build_A", "coalgebra_operad", "build_A"),
    ("coalgebra_operad.delta_cell", "coalgebra_operad", "delta_cell"),
    ("coalgebra_operad.counit_morphism", "coalgebra_operad",
     "counit_morphism"),
    ("coalgebra_operad.axiom_checks", "coalgebra_operad",
     "DgCoalgebra.check_coassociative"),
    ("coalgebra_operad.axiom_checks", "coalgebra_operad",
     "DgCoalgebra.check_counit"),
    ("coalgebra_operad.axiom_checks", "coalgebra_operad",
     "DgCoalgebra.check_coderivation"),
    ("coalgebra_operad.axiom_checks", "coalgebra_operad",
     "DgCoalgebra.check_counit_chain_map"),

    ("ox_construction.check_Gg_and_tri", "ox_construction",
     "check_Gg_and_tri"),
    ("ox_construction.check_coproduct_rule", "ox_construction",
     "check_coproduct_rule"),
    ("ox_construction.check_differential_rule", "ox_construction",
     "check_differential_rule"),
    ("ox_construction.phi_rank", "ox_construction", "phi_rank"),
    ("ox_construction.phi_full", "ox_construction", "phi_full"),
    ("ox_construction.evaluate", "ox_construction", "evaluate"),
    ("ox_construction.t_chi", "ox_construction", "t_chi"),
    ("ox_construction.shuffle_many", "ox_construction", "shuffle_many"),
    ("ox_construction.arity2_homology", "ox_construction", "arity2_homology"),
    ("ox_construction.equal_in_O", "ox_construction", "equal_in_O"),
    ("ox_construction.jacobiator", "ox_construction", "jacobiator"),
    ("ox_construction.signs_report", "ox_construction", "signs_report"),

    ("hochschild_lab.p_basis", "hochschild_lab",
     "SchoutenTruncation.p_basis"),
    ("hochschild_lab.dual_model", "hochschild_lab",
     "SchoutenDualModel.__init__"),
    ("hochschild_lab.hom_differential", "hochschild_lab", "hom_differential"),
    ("hochschild_lab.e1_representative", "hochschild_lab",
     "e1_representative"),
    ("hochschild_lab.harrison", "hochschild_lab", "harrison"),
    ("hochschild_lab.harrison", "hochschild_lab",
     "harrison_boundary_descends"),
    ("hochschild_lab.cochains", "hochschild_lab", "hochschild_d"),
    ("hochschild_lab.cochains", "hochschild_lab", "brace"),
    ("hochschild_lab.cochains", "hochschild_lab", "cup"),
    ("hochschild_lab.cochains", "hochschild_lab", "gerstenhaber_bracket"),
    ("hochschild_lab.cochains", "hochschild_lab", "binfty_on_cochains"),
    ("hochschild_lab.hh_dimensions", "hochschild_lab", "hh_dimensions"),
    ("hochschild_lab.hh_gerstenhaber_report", "hochschild_lab",
     "hh_gerstenhaber_report"),
    ("hochschild_lab.schouten_comparison", "hochschild_lab",
     "schouten_comparison"),
    ("hochschild_lab.extension_report", "hochschild_lab", "extension_report"),
    ("hochschild_lab.hom_commutator_report", "hochschild_lab",
     "hom_commutator_report"),
    ("hochschild_lab.obstruction_E1", "hochschild_lab", "obstruction_E1"),
    ("hochschild_lab.obstruction_bracket_action", "hochschild_lab",
     "obstruction_bracket_action"),
    ("hochschild_lab.obstruction_vanishing", "hochschild_lab",
     "obstruction_vanishing"),

    ("exact_chain.echelon_add", "exact_chain", "Echelon.add"),
    ("exact_chain.complex_check", "exact_chain", "Complex.__init__"),
    ("exact_chain.complex_check", "exact_chain", "GradedMap.compose"),
    ("exact_chain.homology_dims", "exact_chain", "Complex.homology_dims"),
    ("exact_chain.homology", "exact_chain", "Complex.homology"),
    ("exact_chain.kernel_basis", "exact_chain", "kernel_basis"),
    ("exact_chain.quotient", "exact_chain", "quotient"),

    ("operad_core.element_add", "operad_core", "OperadElement.add"),
    ("operad_core.map_trees", "operad_core", "OperadElement.map_trees"),
    ("operad_core.graft", "operad_core", "graft"),
    ("operad_core.replace_vertex", "operad_core", "replace_vertex"),
    ("operad_core.free_differential", "operad_core",
     "FreeDifferential.__call__"),
)


def _count_useful(counts, args, result):
    # Echelon.add returns None for a dependent vector
    if result is not None:
        counts["exact_chain.echelon_add.useful"] = (
            counts.get("exact_chain.echelon_add.useful", 0) + 1)


def _record_cells(counts, args, result):
    n = args[0]
    if n >= 2:
        counts.setdefault("associahedra.cells_by_arity", {})[n] = len(
            result.cells)


def _record_basis(counts, args, result):
    trunc = args[0]
    key = (trunc.cap, trunc.lcap, trunc.generators)
    counts.setdefault("hochschild_lab.p_basis_by_truncation", {})[key] = len(
        result)


# span name -> hook(counts, args, result), run after the call returns
HOOKS = {
    "exact_chain.echelon_add": _count_useful,
    "associahedra.decompose": _record_cells,
    "hochschild_lab.p_basis": _record_basis,
}


def _operadlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "operadlab"
                                  or name.startswith("operadlab."))]


class Tracer:
    """In-memory span recorder for one run of one child process."""

    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []        # (span id, parent id, name, start, end)
        self.counts = {}       # filled by HOOKS
        self._stack = []
        self._next_id = 0
        self._undo = []        # (namespace, key, original binding)

    def wrap(self, name, fn):
        """Return fn wrapped so that every call records one span."""
        spans, stack, clock = self.spans, self._stack, self.clock
        hook = HOOKS.get(name)
        counts = self.counts
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self, boundaries=BOUNDARIES):
        """Wrap every boundary in the loaded operadlab modules."""
        for _, module_name, _ in boundaries:
            importlib.import_module("operadlab." + module_name)
        modules = _operadlab_modules()
        for name, module_name, path in boundaries:
            mod = sys.modules["operadlab." + module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                self._undo.append((cls, attr, orig))
                setattr(cls, attr, self.wrap(name, orig))
                continue
            orig = getattr(mod, path)
            wrapped = self.wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self):
        """Restore every binding that `install` replaced."""
        while self._undo:
            target, key, orig = self._undo.pop()
            setattr(target, key, orig)

    def summary(self, verdict_s):
        """Per-span-name calls/total/self times, per-layer self times and
        the time of the verdict not covered by any span."""
        child_time = {}
        for sid, parent, name, start, end in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        by_name = {}
        layers = {}
        covered = 0.0
        for sid, parent, name, start, end in self.spans:
            dur = end - start
            own = dur - child_time.get(sid, 0.0)
            entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += own
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own
            if parent < 0:
                covered += dur
        return {"spans": by_name, "layers": layers,
                "unspanned_s": verdict_s - covered,
                "span_count": len(self.spans),
                "counts": _plain_counts(self.counts)}

    def write_spans(self, path, origin):
        """Write the spans as CSV, times in seconds relative to origin."""
        with open(path, "w") as fh:
            fh.write("run_id,span,parent,name,start_s,end_s\n")
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(f"{self.run_id},{sid},{parent},{name},"
                         f"{start - origin:.9f},{end - origin:.9f}\n")


def _plain_counts(counts):
    """Counts with JSON-safe keys."""
    out = {}
    for k, v in counts.items():
        if isinstance(v, dict):
            out[k] = {",".join(map(str, key)) if isinstance(key, tuple)
                      else str(key): n for key, n in sorted(v.items())}
        else:
            out[k] = v
    return out
