import pytest

from seiznet import parallel


class FakeBlas:
    """An OpenBLAS thread count behind a (get, set) pair that records each set."""

    def __init__(self, threads):
        self.threads, self.sets = threads, []

    def get(self):
        return self.threads

    def set(self, threads):
        self.sets.append(threads)
        self.threads = threads


@pytest.fixture
def blas(monkeypatch, request):
    fake = FakeBlas(request.param)
    monkeypatch.setattr(parallel, "openblas_threads", lambda: (fake.get, fake.set))
    return fake


def test_without_openblas_nothing_is_halved(monkeypatch):
    monkeypatch.setattr(parallel, "openblas_threads", lambda: None)
    with parallel.halved() as two:
        assert two is False


@pytest.mark.parametrize("blas", [1], indirect=True)
def test_under_two_threads_the_count_is_left_alone(blas):
    with parallel.halved() as two:
        assert two is False
        assert blas.sets == []
    assert blas.sets == []


@pytest.mark.parametrize("blas, half", [(2, 1), (3, 1), (8, 4)], indirect=["blas"])
def test_the_count_is_halved_for_the_block_and_restored_after_it(blas, half):
    threads = blas.threads
    with parallel.halved() as two:
        assert two is True
        assert blas.threads == half
    assert blas.sets == [half, threads]


@pytest.mark.parametrize("blas", [4], indirect=True)
def test_the_count_is_restored_after_a_raise(blas):
    class Failed(Exception):
        pass

    with pytest.raises(Failed), parallel.halved():
        assert blas.threads == 2
        raise Failed
    assert blas.sets == [2, 4]


@pytest.mark.parametrize("blas", [2], indirect=True)
def test_a_nested_block_at_one_thread_is_not_halved_again(blas):
    # two-process training validates through predict_probs, which asks
    # again at the count training runs at
    with parallel.halved() as outer:
        with parallel.halved() as inner:
            assert (outer, inner) == (True, False)
            assert blas.threads == 1
    assert blas.sets == [1, 2]


def test_the_loaded_openblas_is_halved_and_restored():
    found = parallel.openblas_threads()
    if found is None or found[0]() < 2:
        pytest.skip("numpy's OpenBLAS was not found, or it runs 1 thread")
    get = found[0]
    threads = get()
    with parallel.halved() as two:
        assert two is True
        assert get() == threads // 2
    assert get() == threads
