"""The benchmark's workloads: calls into the public functions of operadlab.

Each workload is a function of the benchmark seed.  It returns a list of
``(name, report, payload)``: ``report`` is a cli_report-style dict with a
``checks`` list, and ``payload`` is the exported text when the workload
exports it itself, else None.  Every ``run(...)`` call gets the seed.

``cells``, ``corestriction`` and ``readme_all`` are the benchmarked
workloads (see BENCHMARK.json); ``smoke_cells`` and ``smoke_bop`` are small
ones that the benchmark's own tests use.
"""


def _gg_report(ox, ks):
    """check_Gg_and_tri(k) for each k, as a report with one check per k."""
    checks = []
    for k in ks:
        res = ox.check_Gg_and_tri(k)
        checks.append({"suite": "corestriction",
                       "name": f"Gg_and_tri_{k}",
                       "pass": bool(res["coproduct_rule"]
                                    and res["differential_rule"]),
                       "data": res})
    return {"checks": checks}


def cells(seed):
    from operadlab import cli_report
    return [
        ("associahedra", cli_report.run("associahedra", max_arity=6,
                                        seed=seed), None),
        ("coalgebra", cli_report.run("coalgebra", max_arity=6,
                                     seed=seed), None),
    ]


def corestriction(seed):
    from operadlab import cli_report, ox_construction
    return [
        ("bop", cli_report.run("bop", seed=seed), None),
        ("Gg_and_tri", _gg_report(ox_construction, (2, 3, 4)), None),
    ]


def readme_all(seed):
    from operadlab import cli_report
    report = cli_report.run("all", max_arity=4, weight_cap=3, seed=seed)
    return [("all", report, cli_report.export(report, "json"))]


def smoke_cells(seed):
    from operadlab import cli_report
    return [
        ("associahedra", cli_report.run("associahedra", max_arity=4,
                                        seed=seed), None),
        ("coalgebra", cli_report.run("coalgebra", max_arity=3,
                                     seed=seed), None),
    ]


def smoke_bop(seed):
    from operadlab import cli_report, ox_construction
    return [
        ("bop", cli_report.run("bop", seed=seed), None),
        ("Gg_and_tri", _gg_report(ox_construction, (2,)), None),
    ]


WORKLOADS = {f.__name__: f for f in
             (cells, corestriction, readme_all, smoke_cells, smoke_bop)}
