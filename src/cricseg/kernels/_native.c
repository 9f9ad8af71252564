/* Compiled kernels, the twin of _fallback.py.
 *
 * The two per-pixel kernels take 2-D C-contiguous planes through the
 * buffer protocol (numpy arrays or any other exporter) and use only the
 * CPython API. Build with -ffp-contract=off: the mean update must round
 * after the multiply and again after the add, as numpy does, so that both
 * implementations keep bit-identical means and therefore return identical
 * counts. The flag applies to every clone of update_plane, so the AVX2
 * body has no FMA either.
 *
 * The build targets the baseline of its platform (SSE2 on x86-64), never
 * -march=native, so a wheel runs on any CPU of that platform. On x86-64
 * with glibc, update_plane alone is compiled twice, and the dynamic loader
 * picks the AVX2 body once, when the extension loads, on a CPU that has
 * it.
 *
 * scan_annotations reads annotation JSON Lines from an untrusted file. It
 * never reads past the LF that ends a line, builds nothing before a whole
 * line has passed every check, and leaves any line it cannot prove it
 * loads as the Python loader would to that loader.
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

/* ---- Annotation lines ---------------------------------------------------
 *
 * A line is accepted only in a shape that backend._load_line loads without
 * an error: an object with "frame" (digits, no sign), "front_prob" (a
 * number with a fraction or an exponent, in [0, 1]) and optionally
 * "detections", an array of objects with "label" (one of the five labels,
 * unescaped), "box" (four such numbers) and "conf" (one, in [0, 1]); no
 * other key, none twice, JSON whitespace only between tokens, and boxes
 * that pass Detection's checks and _parse_detection's frame bounds.
 * Anything else, a frame already loaded or a number longer than MAX_NUMBER
 * ends the scan at that line. */

#define MAX_NUMBER 40
#define LABELS 5

static const char *const label_names[LABELS] = {"pitch", "umpire", "batsman", "bowler", "ball"};
static const char *const record_keys[3] = {"frame", "front_prob", "detections"};
static const char *const detection_keys[3] = {"label", "box", "conf"};
enum { KEY_FRAME, KEY_FRONT_PROB, KEY_DETECTIONS };
enum { KEY_LABEL, KEY_BOX, KEY_CONF };

typedef struct {
    int label;
    double box[4];
    double conf;
} ParsedDetection;

typedef struct {
    long long frame;
    double front_prob;
    ParsedDetection *dets;
    Py_ssize_t n_dets, cap_dets;
} ParsedRecord;

/* The record types and the slot descriptors that fill them. */
typedef struct {
    PyTypeObject *detection, *annotations;
    PyObject *label, *box, *confidence, *frame_index, *front_prob, *detections;
    PyObject *labels[LABELS];
} Slots;

/* Parsers return 1 when they consumed a value, 0 to hand the line back
 * and -1 with an exception set. */
#define TRY(expr)                  \
    do {                           \
        int r_ = (expr);           \
        if (r_ <= 0)               \
            return r_;             \
    } while (0)

static const char *
skip_ws(const char *p, const char *end)
{
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r'))
        p++;
    return p;
}

static int
is_digit(const char *p, const char *end)
{
    return p < end && *p >= '0' && *p <= '9';
}

/* The index in names of the string at *pp, moving *pp past it, or -1. A
 * string with an escape never matches, as no name holds a backslash. */
static int
match_name(const char **pp, const char *end, const char *const *names, int n)
{
    const char *p = *pp, *q;

    if (p == end || *p != '"' || (q = memchr(p + 1, '"', end - p - 1)) == NULL)
        return -1;
    for (int i = 0; i < n; i++) {
        size_t len = strlen(names[i]);
        if ((size_t)(q - p - 1) == len && memcmp(p + 1, names[i], len) == 0) {
            *pp = q + 1;
            return i;
        }
    }
    return -1;
}

/* Consume ':' and the whitespace around it. */
static int
colon(const char **pp, const char *end)
{
    const char *p = skip_ws(*pp, end);

    if (p == end || *p != ':')
        return 0;
    *pp = skip_ws(p + 1, end);
    return 1;
}

/* After a member or item: 1 at ',', 2 at `close`, 0 otherwise. */
static int
next_item(const char **pp, const char *end, char close)
{
    const char *p = skip_ws(*pp, end);

    if (p < end && *p == ',') {
        *pp = skip_ws(p + 1, end);
        return 1;
    }
    if (p < end && *p == close) {
        *pp = p + 1;
        return 2;
    }
    return 0;
}

/* The end of the JSON number at p, or NULL; *is_float is set when it has a
 * fraction or an exponent, which makes json.loads return a float. */
static const char *
number_end(const char *p, const char *end, int *is_float)
{
    *is_float = 0;
    if (p < end && *p == '-')
        p++;
    if (!is_digit(p, end))
        return NULL;
    if (*p == '0')
        p++;
    else
        while (is_digit(p, end))
            p++;
    if (p < end && *p == '.') {
        if (!is_digit(++p, end))
            return NULL;
        while (is_digit(p, end))
            p++;
        *is_float = 1;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
        p++;
        if (p < end && (*p == '+' || *p == '-'))
            p++;
        if (!is_digit(p, end))
            return NULL;
        while (is_digit(p, end))
            p++;
        *is_float = 1;
    }
    return p;
}

/* A number json.loads returns as a float, converted as it converts it. */
static int
parse_float(const char **pp, const char *end, double *out)
{
    char buf[MAX_NUMBER + 1];
    int is_float;
    const char *q = number_end(*pp, end, &is_float);

    if (q == NULL || !is_float || q - *pp > MAX_NUMBER)
        return 0;
    memcpy(buf, *pp, q - *pp);
    buf[q - *pp] = '\0';
    *out = PyOS_string_to_double(buf, NULL, NULL);
    if (*out == -1.0 && PyErr_Occurred())
        return -1;
    *pp = q;
    return 1;
}

/* A frame index: digits without a sign, few enough for a long long. */
static int
parse_index(const char **pp, const char *end, long long *out)
{
    int is_float;
    const char *p = *pp, *q = number_end(p, end, &is_float);

    if (q == NULL || is_float || *p == '-' || q - p > 18)
        return 0;
    for (*out = 0; p < q; p++)
        *out = *out * 10 + (*p - '0');
    *pp = q;
    return 1;
}

static int
parse_box(const char **pp, const char *end, double box[4])
{
    const char *p = *pp;

    if (p == end || *p != '[')
        return 0;
    p = skip_ws(p + 1, end);
    for (int i = 0; i < 4; i++) {
        TRY(parse_float(&p, end, &box[i]));
        if (next_item(&p, end, ']') != (i < 3 ? 1 : 2))
            return 0;
    }
    *pp = p;
    return 1;
}

/* One detection object; the checks are Detection's and _parse_detection's
 * frame bounds. NaN fails every comparison, and the upper bounds keep out
 * infinities. */
static int
parse_detection(const char **pp, const char *end, ParsedDetection *d, double fw, double fh)
{
    const char *p = *pp;
    unsigned seen = 0;
    int more;

    if (p == end || *p != '{')
        return 0;
    p = skip_ws(p + 1, end);
    do {
        int key = match_name(&p, end, detection_keys, 3);
        if (key < 0 || seen & (1u << key) || !colon(&p, end))
            return 0;
        seen |= 1u << key;
        if (key == KEY_LABEL) {
            if ((d->label = match_name(&p, end, label_names, LABELS)) < 0)
                return 0;
        }
        else if (key == KEY_BOX)
            TRY(parse_box(&p, end, d->box));
        else
            TRY(parse_float(&p, end, &d->conf));
    } while ((more = next_item(&p, end, '}')) == 1);
    if (more == 0 || seen != 7)
        return 0;
    double x = d->box[0], y = d->box[1], w = d->box[2], h = d->box[3];
    if (!(0.0 <= d->conf && d->conf <= 1.0
          && 0.0 <= x && x < INFINITY && 0.0 <= y && y < INFINITY
          && 0.0 < w && w < INFINITY && 0.0 < h && h < INFINITY
          && x + w <= fw && y + h <= fh))
        return 0;
    *pp = p;
    return 1;
}

static int
parse_detections(const char **pp, const char *end, ParsedRecord *rec, double fw, double fh)
{
    const char *p = *pp;
    int more;

    if (p == end || *p != '[')
        return 0;
    p = skip_ws(p + 1, end);
    if (p < end && *p == ']') {
        *pp = p + 1;
        return 1;
    }
    do {
        if (rec->n_dets == rec->cap_dets) {
            Py_ssize_t cap = rec->cap_dets ? 2 * rec->cap_dets : 16;
            ParsedDetection *dets = PyMem_Realloc(rec->dets, cap * sizeof(*dets));
            if (dets == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            rec->dets = dets;
            rec->cap_dets = cap;
        }
        TRY(parse_detection(&p, end, &rec->dets[rec->n_dets++], fw, fh));
    } while ((more = next_item(&p, end, ']')) == 1);
    if (more == 0)
        return 0;
    *pp = p;
    return 1;
}

/* The record object that fills [p, end) but for whitespace. */
static int
parse_record(const char *p, const char *end, ParsedRecord *rec, double fw, double fh)
{
    unsigned seen = 0;
    int more;

    rec->n_dets = 0;
    if (p == end || *p != '{')
        return 0;
    p = skip_ws(p + 1, end);
    do {
        int key = match_name(&p, end, record_keys, 3);
        if (key < 0 || seen & (1u << key) || !colon(&p, end))
            return 0;
        seen |= 1u << key;
        if (key == KEY_FRAME)
            TRY(parse_index(&p, end, &rec->frame));
        else if (key == KEY_FRONT_PROB)
            TRY(parse_float(&p, end, &rec->front_prob));
        else
            TRY(parse_detections(&p, end, rec, fw, fh));
    } while ((more = next_item(&p, end, '}')) == 1);
    if (more == 0 || (seen & 3) != 3 || skip_ws(p, end) != end)
        return 0;
    return 0.0 <= rec->front_prob && rec->front_prob <= 1.0;
}

/* Set a slot through its descriptor, as descriptor.__set__ does; steals
 * a reference to value, which may be NULL after a failed allocation. */
static int
set_slot(PyObject *descr, PyObject *obj, PyObject *value)
{
    int r = value == NULL ? -1 : Py_TYPE(descr)->tp_descr_set(descr, obj, value);

    Py_XDECREF(value);
    return r;
}

static PyObject *
new_detection(const Slots *s, const ParsedDetection *d)
{
    PyObject *box = PyTuple_New(4), *det;

    if (box == NULL)
        return NULL;
    for (int i = 0; i < 4; i++) {
        PyObject *v = PyFloat_FromDouble(d->box[i]);
        if (v == NULL) {
            Py_DECREF(box);
            return NULL;
        }
        PyTuple_SET_ITEM(box, i, v);
    }
    if ((det = s->detection->tp_alloc(s->detection, 0)) == NULL) {
        Py_DECREF(box);
        return NULL;
    }
    if (set_slot(s->box, det, box) < 0
        || set_slot(s->label, det, Py_NewRef(s->labels[d->label])) < 0
        || set_slot(s->confidence, det, PyFloat_FromDouble(d->conf)) < 0) {
        Py_DECREF(det);
        return NULL;
    }
    return det;
}

/* Build the record into records: 1 when added, 0 when its frame is
 * already there (the Python loader words that error), -1 on error. */
static int
add_record(const Slots *s, const ParsedRecord *rec, PyObject *records)
{
    PyObject *key = PyLong_FromLongLong(rec->frame), *dets = NULL, *ann = NULL;
    int r = -1;

    if (key == NULL)
        return -1;
    if ((r = PyDict_Contains(records, key)) != 0) {
        Py_DECREF(key);
        return r < 0 ? -1 : 0;
    }
    r = -1;
    if ((dets = PyTuple_New(rec->n_dets)) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < rec->n_dets; i++) {
        PyObject *det = new_detection(s, &rec->dets[i]);
        if (det == NULL)
            goto done;
        PyTuple_SET_ITEM(dets, i, det);
    }
    if ((ann = s->annotations->tp_alloc(s->annotations, 0)) == NULL
        || set_slot(s->frame_index, ann, Py_NewRef(key)) < 0
        || set_slot(s->front_prob, ann, PyFloat_FromDouble(rec->front_prob)) < 0
        || set_slot(s->detections, ann, Py_NewRef(dets)) < 0
        || PyDict_SetItem(records, key, ann) < 0)
        goto done;
    r = 1;
done:
    Py_DECREF(key);
    Py_XDECREF(dets);
    Py_XDECREF(ann);
    return r;
}

static int
get_slot(PyTypeObject *type, const char *name, PyObject **out)
{
    *out = PyObject_GetAttrString((PyObject *)type, name);
    if (*out == NULL)
        return -1;
    if (Py_TYPE(*out)->tp_descr_set != NULL)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s.%s is not a settable slot", type->tp_name, name);
    return -1;
}

static void
release_slots(Slots *s)
{
    Py_CLEAR(s->label);
    Py_CLEAR(s->box);
    Py_CLEAR(s->confidence);
    Py_CLEAR(s->frame_index);
    Py_CLEAR(s->front_prob);
    Py_CLEAR(s->detections);
    for (int i = 0; i < LABELS; i++)
        Py_CLEAR(s->labels[i]);
}

static int
get_slots(Slots *s)
{
    if (get_slot(s->detection, "label", &s->label) < 0
        || get_slot(s->detection, "box", &s->box) < 0
        || get_slot(s->detection, "confidence", &s->confidence) < 0
        || get_slot(s->annotations, "frame_index", &s->frame_index) < 0
        || get_slot(s->annotations, "front_prob", &s->front_prob) < 0
        || get_slot(s->annotations, "detections", &s->detections) < 0)
        return -1;
    for (int i = 0; i < LABELS; i++)
        if ((s->labels[i] = PyUnicode_InternFromString(label_names[i])) == NULL)
            return -1;
    return 0;
}

PyDoc_STRVAR(scan_annotations_doc,
"scan_annotations(block, pos, records, frame_w, frame_h, detection, annotations)\n"
"    -> (pos, lines)\n\n"
"Load annotation lines from block[pos:] into records (frame index ->\n"
"annotations instance), building each record through the slot\n"
"descriptors of the two types, while every line is blank or one that the\n"
"scanner proves the Python loader would load the same way. Stops at the\n"
"first other line and at a last line without an LF, and returns where it\n"
"stopped and how many lines it consumed.");

static PyObject *
scan_annotations(PyObject *Py_UNUSED(module), PyObject *args)
{
    Py_buffer block;
    Py_ssize_t pos, lines = 0;
    PyObject *records, *result = NULL;
    double fw, fh;
    Slots s = {0};
    ParsedRecord rec = {0};

    if (!PyArg_ParseTuple(args, "y*nO!ddO!O!:scan_annotations", &block, &pos,
                          &PyDict_Type, &records, &fw, &fh,
                          &PyType_Type, &s.detection, &PyType_Type, &s.annotations))
        return NULL;
    if (pos < 0 || pos > block.len) {
        PyErr_SetString(PyExc_ValueError, "pos is outside the block");
        goto done;
    }
    if (get_slots(&s) < 0)
        goto done;

    const char *p = (const char *)block.buf + pos, *end = (const char *)block.buf + block.len;
    const char *nl;
    while (p < end && (nl = memchr(p, '\n', end - p)) != NULL) {
        const char *text = skip_ws(p, nl);
        if (text < nl) {
            int r = parse_record(text, nl, &rec, fw, fh);
            if (r > 0)
                r = add_record(&s, &rec, records);
            if (r < 0)
                goto done;
            if (r == 0)
                break;
        }
        lines++;
        p = nl + 1;
    }
    result = Py_BuildValue("nn", (Py_ssize_t)(p - (const char *)block.buf), lines);
done:
    PyMem_Free(rec.dets);
    release_slots(&s);
    PyBuffer_Release(&block);
    return result;
}


static PyMethodDef methods[] = {
    {"bg_update", bg_update, METH_VARARGS, bg_update_doc},
    {"band_abs_diff_mean", band_abs_diff_mean, METH_VARARGS, band_abs_diff_mean_doc},
    {"scan_annotations", scan_annotations, METH_VARARGS, scan_annotations_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_native",
    .m_doc = "Compiled per-pixel kernels and annotation line scanner.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModule_Create(&module_def);
}
