"""The benchmark traces pampa from the outside, by the names of its modules,
classes and methods; a rename would silently drop a layer from the traced
metrics."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from pampa import config, limiters, mesh, presets, run, scheme, transform


def _tracer_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_name_it_patches():
    pampa = SimpleNamespace(config=config, limiters=limiters, mesh=mesh,
                            presets=presets, run=run, scheme=scheme,
                            transform=transform)
    tracer = _tracer_module().Tracer(pampa)
    cfg = config.load_config("sod").with_overrides(n=20, t_final=0.01)

    def sod():
        built = run.build_scheme(cfg)
        field = run.initial_field(cfg, built)
        run.advance(built, field, cfg.t_final, cfg.cfl, cfg.integrator)

    tracer.install()
    try:
        tracer.run(sod)
    finally:
        leaked = tracer.patches.restore()
    assert tracer.missing == []
    assert leaked == []
    assert {"timeint.step", "scheme.residual", "systems.pressure"} <= set(tracer.names)
