"""Public API surface tests: everything advertised in README importable and
wired together."""

import importlib

import pytest

import repro

# every package whose ``__init__`` is a ``lazy_exports`` table
LAZY_PACKAGES = ("repro", "repro.bench", "repro.cfg", "repro.inference",
                 "repro.locks", "repro.obs", "repro.pointer", "repro.sim")


def test_version():
    assert repro.__version__


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve_list_and_cache(package):
    module = importlib.import_module(package)
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    assert set(dir(module)) >= set(module.__all__)
    for name in module.__all__:
        assert getattr(module, name) is getattr(module, name), name
        assert name in vars(module), f"{package}.{name} was not cached"
    star = {}
    exec(f"from {package} import *", star)
    assert set(star) >= set(module.__all__)
    with pytest.raises(AttributeError, match=package.replace(".", r"\.")):
        module.no_such_name


def test_documented_import_spellings():
    from repro import infer_locks
    from repro.inference import Engine, analysis, diskcache

    assert infer_locks is analysis.infer_locks
    assert Engine.__module__ == "repro.inference.kernel"
    assert diskcache.__name__ == "repro.inference.diskcache"


def test_readme_quickstart_snippet():
    source = """
    struct elem { elem* next; int* data; }
    struct list { elem* head; }
    void move(list* from, list* to) {
      atomic {
        elem* x = to->head;
        elem* y = from->head;
        from->head = null;
        if (x == null) { to->head = y; }
        else {
          while (x->next != null) { x = x->next; }
          x->next = y;
        }
      }
    }
    void main() { list* a = new list; list* b = new list; move(a, b); }
    """
    result = repro.infer_locks(source, k=9)
    description = result.describe()
    assert "move#1" in description
    program = repro.transform_with_inference(result)
    text = repro.print_lowered_program(program)
    assert "acquireAll" in text


def test_benchmark_registry_exported():
    assert "rbtree" in repro.ALL_BENCHMARKS
    assert set(repro.CONFIGS) == {"global", "coarse", "fine+coarse", "stm"}


def test_scheme_classes_exported():
    product = repro.ProductScheme(repro.KLimitScheme(3), repro.EffectScheme())
    assert product.leq(product.var("x"), product.top())


def test_run_benchmark_exported():
    result = repro.run_benchmark(
        repro.ALL_BENCHMARKS["rbtree"], "stm", threads=2, setting="low",
        n_ops=4,
    )
    assert isinstance(result, repro.RunResult)
    assert result.ticks > 0
