import weakref

import numpy as np
import pytest

from reluphase import (
    NetworkParams,
    OutputMap,
    Rng,
    build_output_map,
    forward,
    forward_batch,
    forward_binary,
    network_params,
)


def reference_normal(rng, size):
    """Box-Muller written out on rng's uniforms, one normal(size) call."""
    count = 1 if size is None else int(np.prod(size))
    pairs = (count + 1) // 2
    u1 = 1.0 - rng._gen.random(pairs)
    u2 = rng._gen.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    out = z[:count].reshape(() if size is None else size)
    return float(out) if size is None else out


class TestRng:
    def test_same_seed_same_draws(self):
        a = Rng(7).normal((3, 4))
        b = Rng(7).normal((3, 4))
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(Rng(7).uniform(10), Rng(7).uniform(10))

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=f"seed must be nonnegative, got {seed}"):
            Rng(seed)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(0).normal(8), Rng(1).normal(8))

    def test_child_streams_independent_of_parent_draws(self):
        parent = Rng(3)
        early = parent.child(0).normal(5)
        parent.normal(100)  # consume the parent stream
        late = parent.child(0).normal(5)
        np.testing.assert_array_equal(early, late)
        assert not np.array_equal(early, parent.child(1).normal(5))

    def test_box_muller_matches_reference_uniforms(self):
        # Pin the exact transform: rebuild the gaussians from the same
        # PCG64 stream by hand.
        seq = np.random.SeedSequence(11, spawn_key=())
        gen = np.random.Generator(np.random.PCG64(seq))
        u1 = 1.0 - gen.random(2)
        u2 = gen.random(2)
        r = np.sqrt(-2.0 * np.log(u1))
        expect = np.empty(4)
        expect[0::2] = r * np.cos(2.0 * np.pi * u2)
        expect[1::2] = r * np.sin(2.0 * np.pi * u2)
        np.testing.assert_array_equal(Rng(11).normal(4), expect)

    def test_normal_shapes_and_scalar(self):
        assert Rng(0).normal((2, 3, 4)).shape == (2, 3, 4)
        assert Rng(0).normal(5).shape == (5,)
        assert isinstance(Rng(0).normal(), float)

    def test_normal_moments(self):
        z = Rng(123).normal(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_odd_count_consumes_full_pair(self):
        # Drawing 3 then 1 differs from drawing 4 only in buffering, never in values.
        a = Rng(5).normal(3)
        b = Rng(5).normal(4)[:3]
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("size", [None, 1, 3, 8, (3,), (2, 8), (7, 3), (2, 3, 4), (30000, 8, 4)])
    def test_in_place_transform_matches_reference(self, size):
        # (30000, 8, 4) is one gc-prob Monte Carlo batch at d=4, k=8.
        ours, ref = Rng(17), Rng(17)
        for _ in range(2):  # a second draw checks the stream position too
            a, b = ours.normal(size), reference_normal(ref, size)
            if size is None:
                assert isinstance(a, float) and a == b
            else:
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "count, shape",
        [(1, (2, 8)), (32, (2, 8)), (2500, (2, 8)), (5, (7, 3)), (9, (2, 3, 3)), (4, 5), (3, ()), (1, (30000, 8, 4))],
        ids=["one", "chunk", "landscape-audit", "odd", "odd-3d", "int-shape", "scalars", "mc-batch"],
    )
    def test_normal_draws_equal_successive_normal_calls(self, count, shape):
        # Odd prod(shape) leaves each call's last pair half used; the stack
        # must hold exactly what count calls return, and leave the stream
        # where they leave it.
        ours, ref = Rng(23), Rng(23)
        got = ours.normal_draws(count, shape)
        size = None if shape == () else shape
        expect = np.stack([np.asarray(reference_normal(ref, size)) for _ in range(count)])
        assert got.shape == expect.shape and got.tobytes() == expect.tobytes()
        assert ours.uniform() == ref.uniform()

    def test_normal_draws_leave_the_stream_where_normal_calls_do(self):
        for count, shape in ((7, (2, 5)), (6, (2, 8))):
            batched, calls = Rng(4), Rng(4)
            batched.normal_draws(count, shape)
            for _ in range(count):
                calls.normal(shape)
            assert batched.uniform() == calls.uniform()
            assert batched.normal(3).tobytes() == calls.normal(3).tobytes()

    @pytest.mark.parametrize("shape", [(5, 3), (8, 4), (3,), ()], ids=["odd-row", "mc-row", "row-3", "scalars"])
    @pytest.mark.parametrize("block", [1, 3, 7, 50], ids=["1", "3", "rows", "past-rows"])
    def test_normal_blocks_concatenate_to_one_normal_call(self, shape, block):
        # An odd row size puts a Box-Muller pair across the boundary of two
        # blocks; the blocks must still hold exactly what one call returns,
        # and leave the stream where that call leaves it.
        rows = 7
        ours, ref = Rng(29), Rng(29)
        blocks = list(ours.normal_blocks(rows, shape, block))
        expect = reference_normal(ref, (rows, *shape))
        assert [b.shape[0] for b in blocks] == [min(block, rows - r) for r in range(0, rows, block)]
        got = np.concatenate(blocks)
        assert got.shape == expect.shape and got.tobytes() == expect.tobytes()
        assert ours.uniform() == ref.uniform()

    def test_normal_blocks_of_one_mc_chunk(self):
        # One gc-prob Monte Carlo chunk at d=4, k=8, in its 4096-set blocks.
        ours, ref = Rng(17), Rng(17)
        got = np.concatenate(list(ours.normal_blocks(30000, (8, 4), 4096)))
        assert got.tobytes() == reference_normal(ref, (30000, 8, 4)).tobytes()
        assert ours.uniform() == ref.uniform()

    def test_normal_blocks_move_the_stream_before_any_block_is_read(self):
        ours, calls = Rng(31), Rng(31)
        blocks = ours.normal_blocks(9, (5, 3), 4)
        calls.normal((9, 5, 3))
        assert ours.normal(3).tobytes() == calls.normal(3).tobytes()
        assert np.concatenate(list(blocks)).tobytes() == Rng(31).normal((9, 5, 3)).tobytes()

    def test_normal_blocks_hold_no_block_a_caller_dropped(self):
        # gc_probability_mc drops each block before judging its copy, so
        # the generator must not keep the block's buffer alive.
        blocks = Rng(3).normal_blocks(12, (5, 3), 4)
        block = next(blocks)
        while block.base is not None:
            block = block.base
        buffer = weakref.ref(block)
        del block
        assert buffer() is None
        assert len(list(blocks)) == 2

    def test_normal_blocks_reject_an_empty_block(self):
        with pytest.raises(ValueError, match="block must be positive"):
            Rng(0).normal_blocks(4, (2,), 0)


class TestOutputMap:
    def test_round_robin_owners(self):
        m = build_output_map(7, 0.5)
        np.testing.assert_array_equal(m.owner, [1, 2, 1, 2, 1, 2, 1])
        np.testing.assert_array_equal(m.owner_columns(1), [0, 2, 4, 6])
        assert m.n == 2 and m.k == 7 and m.v == 0.5

    def test_values_signs_and_magnitude(self):
        m = build_output_map(4, 0.25)
        np.testing.assert_array_equal(np.abs(m.values), np.full((2, 4), 0.25))
        assert np.all((m.values > 0).sum(axis=0) == 1)
        np.testing.assert_array_equal(m.values[0], [0.25, -0.25, 0.25, -0.25])

    @pytest.mark.parametrize(
        "k,v", [(1, 1.0), (0, 1.0), (4, 0.0), (4, -1.0), (4, float("inf")), (4, float("nan"))]
    )
    def test_builder_rejects_bad_arguments(self, k, v):
        with pytest.raises(ValueError):
            build_output_map(k, v)

    def test_values_derived_from_owner_and_v(self):
        m = OutputMap(owner=[2, 1, 1, 2], v=0.5)
        assert m.n == 2 and m.k == 4
        np.testing.assert_array_equal(m.values, [[-0.5, 0.5, 0.5, -0.5], [0.5, -0.5, -0.5, 0.5]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 0.5

    def test_validate_rejects_unowned_class(self):
        with pytest.raises(ValueError, match="at least one"):
            OutputMap(owner=np.array([1, 3, 1, 3]), v=1.0)  # class 2 owns nothing
        with pytest.raises(ValueError, match="at least one"):
            OutputMap(owner=np.array([0, 1, 2]), v=1.0)

    def test_rejects_a_third_class(self):
        with pytest.raises(ValueError, match="1 and 2"):
            OutputMap(owner=np.array([1, 2, 3]), v=1.0)

    @pytest.mark.parametrize("owner", [[], [[1, 2]], [1.0, 2.0]])
    def test_rejects_malformed_owner(self, owner):
        with pytest.raises(ValueError, match="integer labels"):
            OutputMap(owner=np.array(owner), v=1.0)


class TestNetworkParams:
    def test_mode_inference(self):
        m = build_output_map(4, 1.0)
        W = np.ones((3, 4))
        assert network_params(W, m).mode == "no-bias"
        assert network_params(W, m, np.full(4, 0.1)).mode == "bias"

    def test_bias_sum_window(self):
        m = build_output_map(4, 1.0)
        W = np.ones((2, 4))
        with pytest.raises(ValueError, match="sum"):
            network_params(W, m, np.full(4, 0.25))  # sums to exactly 1
        with pytest.raises(ValueError):
            network_params(W, m, [0.1, -0.1, 0.1, 0.1])

    def test_shape_and_finiteness_checks(self):
        m = build_output_map(4, 1.0)
        with pytest.raises(ValueError):
            network_params(np.ones((2, 3)), m)
        with pytest.raises(ValueError):
            network_params(np.full((2, 4), np.nan), m)
        with pytest.raises(ValueError):
            network_params(np.ones((2, 4)), m, np.zeros(3))

    def test_arrays_frozen(self):
        p = network_params(np.ones((2, 4)), build_output_map(4, 1.0))
        with pytest.raises(ValueError):
            p.weights[0, 0] = 5.0

    def test_with_weights_keeps_rest(self):
        m = build_output_map(4, 1.0)
        p = network_params(np.ones((2, 4)), m, np.full(4, 0.05))
        q = p.with_weights(np.zeros((2, 4)))
        assert q.mode == "bias"
        np.testing.assert_array_equal(q.biases, p.biases)
        assert q.output is p.output

    def test_mode_is_read_off_the_biases(self):
        m = build_output_map(4, 1.0)
        assert NetworkParams(np.ones((2, 4)), np.zeros(4), m).mode == "no-bias"
        p = NetworkParams(np.ones((2, 4)), np.full(4, 0.1), m)
        assert p.mode == "bias"
        with pytest.raises(AttributeError):
            p.mode = "no-bias"


class TestForward:
    def setup_method(self):
        self.map = build_output_map(2, 1.0)
        W = np.array([[0.1, 0.0], [0.0, 0.0]])
        self.params = network_params(W, self.map)

    def test_hand_scores(self):
        scores, pre = forward(self.params, np.array([1.0, 0.0]))
        np.testing.assert_allclose(pre, [0.1, 0.0])
        np.testing.assert_allclose(scores, [0.1, -0.1])

    def test_batch_matches_single(self):
        rng = Rng(2)
        m = OutputMap(owner=np.array([2, 2, 1, 1, 2, 1]), v=0.7)
        p = network_params(rng.normal((4, 6)), m, np.abs(rng.normal(6)) * 0.05)
        X = rng.normal((9, 4))
        F, H = forward_batch(p, X)
        for s in range(9):
            scores, pre = forward(p, X[s])
            np.testing.assert_allclose(F[s], scores, atol=1e-12)
            np.testing.assert_allclose(H[s], pre, atol=1e-12)

    def test_relu_kills_negative_preactivations(self):
        scores, _ = forward(self.params, np.array([-1.0, 0.0]))
        np.testing.assert_array_equal(scores, [0.0, 0.0])

    def test_binary_score_consistent_with_scores(self):
        rng = Rng(8)
        p = network_params(rng.normal((3, 4)), build_output_map(4, 0.5))
        for x in rng.normal((20, 3)):
            scores, _ = forward(p, x)
            expect = (scores[0] - scores[1]) / (2.0 * 0.5)
            np.testing.assert_allclose(forward_binary(p, x), expect, atol=1e-12)

    def test_binary_score_of_zero_weights_is_zero(self):
        p = network_params(np.zeros((2, 2)), self.map)
        assert forward_binary(p, np.array([1.0, 1.0])) == 0.0
