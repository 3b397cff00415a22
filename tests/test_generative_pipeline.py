"""Generative end-to-end property test: random bodies → plans → sanitizer.

For randomly generated (supported-grammar) loop bodies, the full pipeline —
AST analysis, Alg. 2, strategy choice, partitioning, scheduling, execution
— must either refuse to parallelize (ParallelizationError) or produce a
schedule that runs clean under the shadow-access sanitizer.  A sanitizer
failure would mean the analyzer claimed independence between genuinely
dependent iterations (S601) or blocks (S605): the one unforgivable
auto-parallelizer bug, probed here from the source-code level rather than
the dependence-vector level.
"""

import itertools
import linecache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.loop_info import analyze_loop_body
from repro.analysis.strategy import choose_plan
from repro.core.distarray import DistArray
from repro.errors import ParallelizationError
from repro.runtime.cluster import ClusterSpec
from repro.runtime.executor import OrionExecutor
from repro.runtime.options import LoopOptions

_counter = itertools.count()

EXTENT = 8  # iteration space is EXTENT x EXTENT
PAD = 2     # array extents exceed the iteration extent so +1 offsets fit


def _compile_body(source: str, env: dict):
    """Compile a generated body with retrievable source (linecache trick)."""
    filename = f"<generated-body-{next(_counter)}>"
    linecache.cache[filename] = (
        len(source),
        None,
        source.splitlines(True),
        filename,
    )
    code = compile(source, filename, "exec")
    namespace = dict(env)
    exec(code, namespace)
    return namespace["body"]


# One statement template per access pattern.  {a} is the array name,
# {sub} the subscript.  Read-modify-write keeps the same subscript on both
# sides, which is the paper's applications' shape.
_SUBSCRIPTS = [
    "key[0], :",
    "key[1], :",
    ":, key[0]",
    ":, key[1]",
    "key[0] + 1, :",
    ":, key[1] + 1",
    "key[0], key[1]",
    "0, :",
]


def _statement(array: str, subscript: str, is_write: bool) -> str:
    if is_write:
        return (
            f"    {array}[{subscript}] = {array}[{subscript}] * 0.9 + value\n"
        )
    return f"    _ = {array}[{subscript}]\n"


_access_strategy = st.lists(
    st.tuples(
        st.sampled_from(["A", "B"]),
        st.sampled_from(range(len(_SUBSCRIPTS))),
        st.booleans(),
    ),
    min_size=1,
    max_size=4,
)


class TestGeneratedBodies:
    @settings(max_examples=40, deadline=None)
    @given(accesses=_access_strategy, ordered=st.booleans())
    def test_plan_always_validates(self, accesses, ordered):
        size = EXTENT + PAD
        space = DistArray.from_entries(
            [((i, j), 1.0) for i in range(EXTENT) for j in range(EXTENT)],
            name=f"gen_space_{next(_counter)}",
            shape=(EXTENT, EXTENT),
        ).materialize()
        env = {
            "A": DistArray.randn(
                size, size, name=f"genA_{next(_counter)}", seed=1
            ).materialize(),
            "B": DistArray.randn(
                size, size, name=f"genB_{next(_counter)}", seed=2
            ).materialize(),
        }
        source = "def body(key, value):\n" + "".join(
            _statement(array, _SUBSCRIPTS[sub_idx], is_write)
            for array, sub_idx, is_write in accesses
        )
        body = _compile_body(source, env)
        info = analyze_loop_body(body, space, ordered=ordered)
        try:
            plan = choose_plan(info)
        except ParallelizationError:
            return  # refusing to parallelize is always sound
        executor = OrionExecutor(
            body,
            info,
            plan,
            ClusterSpec(num_machines=2, workers_per_machine=2),
            options=LoopOptions(sanitize=True),
        )
        # Raises SanitizerError on any missed dependence.
        executor.run_epoch()

    @settings(max_examples=20, deadline=None)
    @given(accesses=_access_strategy)
    def test_refs_extracted_match_source(self, accesses):
        """Every generated access appears in the analysis' reference list."""
        size = EXTENT + PAD
        space = DistArray.from_entries(
            [((i, j), 1.0) for i in range(EXTENT) for j in range(EXTENT)],
            name=f"gen_space_{next(_counter)}",
            shape=(EXTENT, EXTENT),
        ).materialize()
        env = {
            "A": DistArray.randn(
                size, size, name=f"genA_{next(_counter)}", seed=1
            ).materialize(),
            "B": DistArray.randn(
                size, size, name=f"genB_{next(_counter)}", seed=2
            ).materialize(),
        }
        source = "def body(key, value):\n" + "".join(
            _statement(array, _SUBSCRIPTS[sub_idx], is_write)
            for array, sub_idx, is_write in accesses
        )
        body = _compile_body(source, env)
        info = analyze_loop_body(body, space)
        touched = {array for array, _s, _w in accesses}
        assert set(info.refs) == touched
        for array in touched:
            expected_writes = sum(
                1 for a, _s, w in accesses if a == array and w
            )
            found_writes = sum(1 for r in info.refs[array] if r.is_write)
            assert found_writes == expected_writes


# --------------------------------------------------------------------- #
# Generative prefetch-completeness: random SLR-shaped bodies             #
# --------------------------------------------------------------------- #

_feature_patterns = st.lists(
    st.sampled_from(["direct", "plus_one", "double_read"]),
    min_size=1,
    max_size=3,
)


class TestGeneratedPrefetchCompleteness:
    @settings(max_examples=25, deadline=None)
    @given(patterns=_feature_patterns)
    def test_prefetch_covers_all_server_reads(self, patterns):
        """Random bodies reading a server array through value-derived
        indices: the synthesized prefetch function must cover every read
        the body performs (checked with a recording broker)."""
        from repro.analysis.prefetch import synthesize_prefetch
        from repro.core import access as access_mod

        weights = DistArray.zeros(
            64, name=f"gen_w_{next(_counter)}"
        ).materialize()
        env = {"weights": weights}
        lines = ["def body(key, sample):\n", "    feats, label = sample\n"]
        for pattern in patterns:
            if pattern == "direct":
                lines.append("    for fid, fval in feats:\n")
                lines.append("        _ = weights[fid] * fval\n")
            elif pattern == "plus_one":
                lines.append("    for fid, fval in feats:\n")
                lines.append("        _ = weights[fid + 1]\n")
            else:
                lines.append("    for fid, fval in feats:\n")
                lines.append("        _ = weights[fid] + weights[fid + 2]\n")
        body = _compile_body("".join(lines), env)

        entries = [
            ((i,), ([(3 * i % 60, 1.0), (7 * i % 60, 2.0)], i % 2))
            for i in range(12)
        ]
        space = DistArray.from_entries(
            entries, name=f"gen_sp_{next(_counter)}", shape=(12,)
        ).materialize()
        info = analyze_loop_body(body, space)
        prefetch = synthesize_prefetch(body, info, ["weights"])
        assert prefetch is not None

        class _Recorder(access_mod.AccessBroker):
            def __init__(self):
                self.reads = set()

            def read(self, array, index):
                if array is weights:
                    idx = index if isinstance(index, tuple) else (index,)
                    self.reads.add(tuple(int(c) for c in idx))
                return array.direct_get(index)

        for key, sample in entries:
            recorder = _Recorder()
            with access_mod.install_broker(recorder):
                body(key, sample)
            predicted = {
                tuple(int(c) for c in idx)
                for name, idx in prefetch(key, sample)
                if name == "weights"
            }
            missing = recorder.reads - predicted
            assert not missing, f"unprefetched reads: {missing}"
