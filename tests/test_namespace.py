"""The package's public namespace, and a guard against names no code reads."""
import ast
import collections
import pathlib
import re

import gaussqfi as gq

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_package_namespace_is_pinned():
    # adding or deleting an export is a reviewed change of this list
    assert sorted(gq.__all__) == [
        "ChannelSpec", "GaussianState", "GeneratorW", "OneModeProbeParams", "PMatrix",
        "ProbeState", "QfiBreakdown", "SymplecticMatrix", "TwoModeProbeParams",
        "WilliamsonForm", "bloch_messiah", "channel_from_dict", "channel_shift",
        "channel_symplectic", "channel_to_dict", "channels", "combined_channel",
        "complex_to_real", "complex_to_real_matrix", "core", "custom_channel",
        "displacement_shift", "errors", "exp_generator", "formulas",
        "mean_photon_number", "mix_channel", "p_matrix", "phase_channel", "probes",
        "qfi", "qfi_unitary", "real_to_complex", "real_to_complex_matrix",
        "squeeze_channel", "state_from_dict", "state_to_dict", "symplectic",
        "symplectic_eigenvalues", "symplectic_residual", "temperature_factors",
        "twomode_squeeze_channel", "validate_moments", "validate_state", "williamson",
    ]


def _definitions():
    """(module, name) of every module-level function, class, method and
    constant in the package.  Dunder names are reached by syntax or by
    Python itself, not by name, so they are left out."""
    for path in sorted((ROOT / "src" / "gaussqfi").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
                if isinstance(node, ast.ClassDef):
                    names += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets
                         for t in getattr(target, "elts", [target]) if isinstance(t, ast.Name)]
            else:
                continue
            yield from ((path.stem, name) for name in names if not name.startswith("__"))


def test_every_module_level_name_is_referenced():
    # a word match over src/, tests/ and perfbench/: a name must occur more
    # often than it is defined, so something other than its definition reads it
    defs = list(_definitions())
    text = "\n".join(path.read_text(encoding="utf-8")
                     for top in ("src", "tests", "perfbench")
                     for path in sorted((ROOT / top).rglob("*.py")))
    words = collections.Counter(re.findall(r"\w+", text))
    defined = collections.Counter(name for _, name in defs)
    assert [f"{module}.{name}" for module, name in defs if words[name] <= defined[name]] == []
