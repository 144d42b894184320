"""Structural gate on the control plane's import graph.

Pricing a config on the analytic model — the ``model``, ``tune``,
``campaign`` and ``serve`` verbs — must load no SciPy, no engine, no
communication layer and no simulator, and building the CLI parser must
load no verb module.  Checked in a fresh interpreter with SciPy
blocked; nothing is timed.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_GATE = """
import sys
sys.modules['scipy'] = None  # any 'import scipy' now raises ImportError

import repro.cli
repro.cli.build_parser()
assert 'numpy' not in sys.modules, 'building the CLI parser loaded NumPy'

import repro.model
import repro.campaign.serve
from repro.campaign.runner import execute_job

row = execute_job({
    'machine': 'frontier', 'nl': 3072, 'block': 768, 'grid': 2,
    'bcast': 'ring2m', 'num_runs': 2,
    'scenario': {'schema': 'repro.scenario/v1', 'name': 'slow',
                 'injections': [{'kind': 'slow_rank', 'rank': 1,
                                 'factor': 1.5}]},
}, code='gate')
assert row['best']['elapsed_s'] > 0

engine_side = ('repro.simulate', 'repro.comm', 'repro.blas', 'repro.lcg')
loaded = sorted(
    name for name in sys.modules
    if name.startswith('scipy.')
    or '.'.join(name.split('.')[:2]) in engine_side
    or (name.startswith('repro.core.') and name != 'repro.core.config')
)
assert sys.modules['scipy'] is None
assert not loaded, loaded
"""


def test_model_only_control_plane_loads_no_engine_or_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", _GATE], env=env, check=True,
                   timeout=120)
