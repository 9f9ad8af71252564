/* Compiled per-pixel kernels, the twin of _fallback.py.
 *
 * Both take 2-D C-contiguous planes through the buffer protocol (numpy
 * arrays or any other exporter) and use only the CPython API. Build with
 * -ffp-contract=off: the mean update must round after the multiply and
 * again after the add, as numpy does, so that both implementations keep
 * bit-identical means and therefore return identical counts. The flag
 * applies to every clone of update_plane, so the AVX2 body has no FMA
 * either.
 *
 * The build targets the baseline of its platform (SSE2 on x86-64), never
 * -march=native, so a wheel runs on any CPU of that platform. On x86-64
 * with glibc, update_plane alone is compiled twice, and the dynamic loader
 * picks the AVX2 body once, when the extension loads, on a CPU that has
 * it.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

/* Acquire obj as a 2-D C-contiguous plane of `format` items. On failure
 * nothing is held and ValueError (or the exporter's error) is set. */
static int
get_plane(PyObject *obj, Py_buffer *view, const char *name, const char *format,
          Py_ssize_t itemsize, int writable)
{
    const char *why = NULL;

    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    if (view->ndim != 2)
        why = "must be 2-D";
    else if (view->itemsize != itemsize || strcmp(view->format, format) != 0)
        why = itemsize == 1 ? "must hold uint8 items" : "must hold float32 items";
    else if (!PyBuffer_IsContiguous(view, 'C'))
        why = "must be C-contiguous";
    else if (writable && view->readonly)
        why = "must be writable";
    if (why == NULL)
        return 0;
    PyErr_Format(PyExc_ValueError, "%s %s", name, why);
    PyBuffer_Release(view);
    return -1;
}

/* Acquire a plane and a uint8 plane of the same shape; on failure neither
 * is held. */
static int
get_pair(PyObject *obj_a, PyObject *obj_b, Py_buffer *a, Py_buffer *b, const char *names[2],
         const char *format_a, Py_ssize_t itemsize_a, int writable_a)
{
    if (get_plane(obj_a, a, names[0], format_a, itemsize_a, writable_a) < 0)
        return -1;
    if (get_plane(obj_b, b, names[1], "B", 1, 0) < 0) {
        PyBuffer_Release(a);
        return -1;
    }
    if (a->shape[0] == b->shape[0] && a->shape[1] == b->shape[1])
        return 0;
    PyErr_Format(PyExc_ValueError, "%s shape (%zd, %zd) does not match %s shape (%zd, %zd)",
                 names[1], b->shape[0], b->shape[1], names[0], a->shape[0], a->shape[1]);
    PyBuffer_Release(a);
    PyBuffer_Release(b);
    return -1;
}

/* target_clones dispatches through an ifunc, which glibc's loader
 * resolves and musl's does not. Without it update_plane is the one
 * baseline body. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define X86_64_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef X86_64_CLONES
#define X86_64_CLONES
#endif

/* One fused pass: d = luma - mean, count |d| > thr, mean += lr * d, all in
 * float32. restrict lets the compiler vectorise it without a run-time
 * overlap check, and a 32-bit count per block vectorises about 1.5x faster
 * than one Py_ssize_t count. */
#define BLOCK 4096

X86_64_CLONES static Py_ssize_t
update_plane(float *restrict m, const unsigned char *restrict l, Py_ssize_t n,
             float lr, float thr)
{
    Py_ssize_t count = 0;

    for (Py_ssize_t start = 0; start < n; start += BLOCK) {
        Py_ssize_t end = n - start < BLOCK ? n : start + BLOCK;
        int block = 0;
        for (Py_ssize_t i = start; i < end; i++) {
            float d = (float)l[i] - m[i];
            block += fabsf(d) > thr;
            m[i] += lr * d;
        }
        count += block;
    }
    return count;
}

PyDoc_STRVAR(bg_update_doc,
"bg_update(mean, luma, learning_rate, diff_threshold) -> int\n\n"
"Blend uint8 luma into the float32 mean in place (mean += lr * d, with\n"
"d = luma - mean) and return how many pixels had |d| > diff_threshold.");

static PyObject *
bg_update(PyObject *Py_UNUSED(module), PyObject *args)
{
    static const char *names[2] = {"mean", "luma"};
    PyObject *mean_obj, *luma_obj;
    Py_buffer mean, luma;
    float lr, thr;
    Py_ssize_t count;

    if (!PyArg_ParseTuple(args, "OOff:bg_update", &mean_obj, &luma_obj, &lr, &thr))
        return NULL;
    if (get_pair(mean_obj, luma_obj, &mean, &luma, names, "f", sizeof(float), 1) < 0)
        return NULL;

    Py_BEGIN_ALLOW_THREADS
    count = update_plane(mean.buf, luma.buf, mean.shape[0] * mean.shape[1], lr, thr);
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&mean);
    PyBuffer_Release(&luma);
    return PyLong_FromSsize_t(count);
}

PyDoc_STRVAR(band_abs_diff_mean_doc,
"band_abs_diff_mean(first, last) -> float\n\n"
"Mean absolute difference between two uint8 planes of equal shape.");

static PyObject *
band_abs_diff_mean(PyObject *Py_UNUSED(module), PyObject *args)
{
    static const char *names[2] = {"first", "last"};
    PyObject *first_obj, *last_obj;
    Py_buffer first, last;
    long long total = 0;

    if (!PyArg_ParseTuple(args, "OO:band_abs_diff_mean", &first_obj, &last_obj))
        return NULL;
    if (get_pair(first_obj, last_obj, &first, &last, names, "B", 1, 0) < 0)
        return NULL;

    const unsigned char *a = first.buf, *b = last.buf;
    const Py_ssize_t n = first.shape[0] * first.shape[1];
    for (Py_ssize_t i = 0; i < n; i++)
        total += a[i] > b[i] ? a[i] - b[i] : b[i] - a[i];
    PyBuffer_Release(&first);
    PyBuffer_Release(&last);
    return PyFloat_FromDouble(n ? (double)total / (double)n : NAN);
}

static PyMethodDef methods[] = {
    {"bg_update", bg_update, METH_VARARGS, bg_update_doc},
    {"band_abs_diff_mean", band_abs_diff_mean, METH_VARARGS, band_abs_diff_mean_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_native",
    .m_doc = "Compiled per-pixel kernels.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModule_Create(&module_def);
}
