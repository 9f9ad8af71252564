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
 *
 * read_files(paths) reads frame files ahead on one pthread of its own. That
 * thread never takes the GIL and touches no Python object: it reads the
 * C strings of the paths, and writes into the buffers of bytes objects
 * that the main thread allocated. Which thread may touch a buffer is
 * decided under the reader's mutex: the main thread takes a buffer back
 * once the thread has marked it read, and drops the others only after
 * joining the thread. Where <pthread.h> is missing the module has no
 * read_files, and the package reads files with the Python fallback.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

#if defined(__has_include)
#if __has_include(<pthread.h>)
#define HAVE_READER_THREAD
#include <errno.h>
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>
#endif
#endif

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

/* The records are frozen and hold only str, float, int and tuples of
 * these, so they cannot be part of a reference cycle: untracking them
 * spares the cyclic collector thousands of objects per load. */
static void
untrack(PyObject *obj)
{
    if (PyObject_IS_GC(obj))
        PyObject_GC_UnTrack(obj);
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
    untrack(box);
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
    untrack(det);
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
    untrack(dets);
    if ((ann = s->annotations->tp_alloc(s->annotations, 0)) == NULL
        || set_slot(s->frame_index, ann, Py_NewRef(key)) < 0
        || set_slot(s->front_prob, ann, PyFloat_FromDouble(rec->front_prob)) < 0
        || set_slot(s->detections, ann, Py_NewRef(dets)) < 0)
        goto done;
    untrack(ann);
    if (PyDict_SetItem(records, key, ann) < 0)
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

/* ---- Frame files ----------------------------------------------------------
 *
 * read_files(paths) yields each file's bytes in order, as
 * _fallback.read_files does. The first pull reads its file here, at the
 * size fstat gives. From then on one thread reads ahead of the pulls, each
 * file into a bytes object of hint + 1 bytes that the main thread
 * allocated, hint being the size of the last file yielded. It reads as
 * many files ahead as fit in AHEAD_BYTES, but never fewer than 2 or more
 * than AHEAD_MAX.
 *
 * The two threads claim files in order. A pull takes its file when the
 * thread has read it, waits, with the GIL released, only while the thread
 * is reading it, and otherwise claims and reads it itself: a sleeping
 * thread can take milliseconds to wake on a busy host, far longer than a
 * small frame takes. For the same reason the thread, once it has read
 * every queued file, sleeps until half of the read-ahead is queued again.
 * A read that fills its buffer may have stopped short of the end, so that
 * file is read again, whole, by the pull. Errors are raised when their
 * file is pulled, and end the iterator. */

#ifdef HAVE_READER_THREAD

#define AHEAD_BYTES (1 << 19)
#define AHEAD_MAX 64

typedef struct {
    PyObject *data;     /* the buffer's bytes object, owned by the main thread */
    char *buf;
    Py_ssize_t cap;
    Py_ssize_t len;     /* bytes read, or -1 with err set */
    int err;
    int done;           /* read by the thread */
} Slot;

typedef struct {
    PyObject_HEAD
    PyObject *paths;    /* tuple of the path objects, which errors name */
    PyObject *encoded;  /* tuple of their file system encodings, as bytes */
    const char **names; /* the bytes' buffers, which the thread reads */
    Py_ssize_t n;
    Py_ssize_t next;    /* the file the next pull yields; n once finished */
    Py_ssize_t hint;    /* expected size of the files to come; -1 asks fstat */
    Slot *slots;        /* file i goes through slots[i % depth] */
    Py_ssize_t depth;
    /* Shared with the thread, under lock, with the slots' done flags.
     * Files [claimed, queued) have buffers and wait for a reader. */
    Py_ssize_t queued;
    Py_ssize_t claimed;
    int thread_idle;    /* the thread sleeps until more is queued */
    int main_waiting;   /* the main thread sleeps until its file is read */
    int stop;
    pthread_mutex_t lock;
    pthread_cond_t cond;
    pthread_t thread;
    int running;        /* started and not joined */
    int threadless;     /* the thread could not start: read every file here */
    int busy;           /* a pull or close is under way, maybe waiting */
} FileReader;

static int
open_file(const char *name, int *err)
{
    int fd;

    do
        fd = open(name, O_RDONLY | O_CLOEXEC);
    while (fd < 0 && errno == EINTR);
    if (fd < 0)
        *err = errno;
    return fd;
}

/* Read fd into buf until cap bytes or the end: the count, or -1 with *err
 * set. */
static Py_ssize_t
read_fd(int fd, char *buf, Py_ssize_t cap, int *err)
{
    Py_ssize_t len = 0;

    while (len < cap) {
        size_t want = (size_t)(cap - len) < INT_MAX ? (size_t)(cap - len) : INT_MAX;
        ssize_t got = read(fd, buf + len, want);
        if (got > 0)
            len += got;
        else if (got == 0)
            break;
        else if (errno != EINTR) {
            *err = errno;
            return -1;
        }
    }
    return len;
}

/* Read the named file into the slot's buffer; touches no Python object. */
static void
read_slot(const char *name, Slot *s)
{
    int err = 0, fd = open_file(name, &err);

    s->len = -1;
    if (fd >= 0) {
        s->len = read_fd(fd, s->buf, s->cap, &err);
        close(fd);
    }
    s->err = err;
}

static void *
reader_main(void *arg)
{
    FileReader *r = arg;

    pthread_mutex_lock(&r->lock);
    while (!r->stop && r->claimed < r->n) {
        if (r->claimed == r->queued) {
            r->thread_idle = 1;
            pthread_cond_wait(&r->cond, &r->lock);
            r->thread_idle = 0;
            continue;
        }
        Py_ssize_t i = r->claimed++;
        Slot *s = &r->slots[i % r->depth];
        pthread_mutex_unlock(&r->lock);
        read_slot(r->names[i], s);
        pthread_mutex_lock(&r->lock);
        s->done = 1;
        if (r->main_waiting)
            pthread_cond_broadcast(&r->cond);
    }
    pthread_mutex_unlock(&r->lock);
    return NULL;
}

static PyObject *
raise_errno(int err, PyObject *path)
{
    errno = err;
    return PyErr_SetFromErrnoWithFilenameObject(PyExc_OSError, path);
}

/* All bytes of file i, read here: room for hint + 1 bytes (hint < 0 asks
 * fstat), doubled while the reads fill it. */
static PyObject *
read_whole(FileReader *r, Py_ssize_t i, Py_ssize_t hint)
{
    const char *name = r->names[i];
    PyObject *data = NULL;
    Py_ssize_t len = 0, got = 0;
    struct stat st;
    int fd, err = 0;

    Py_BEGIN_ALLOW_THREADS
    fd = open_file(name, &err);
    if (fd >= 0 && hint < 0) {
        if (fstat(fd, &st) == 0)
            hint = st.st_size < PY_SSIZE_T_MAX ? (Py_ssize_t)st.st_size : PY_SSIZE_T_MAX - 1;
        else
            err = errno;
    }
    Py_END_ALLOW_THREADS
    if (err)
        goto done;
    data = PyBytes_FromStringAndSize(NULL, hint + 1);
    while (data != NULL) {
        Py_ssize_t cap = PyBytes_GET_SIZE(data);
        char *buf = PyBytes_AS_STRING(data);
        Py_BEGIN_ALLOW_THREADS
        got = read_fd(fd, buf + len, cap - len, &err);
        Py_END_ALLOW_THREADS
        if (got < 0)
            break;
        len += got;
        if (len < cap)
            break;
        if (cap > PY_SSIZE_T_MAX / 2) {
            Py_CLEAR(data);
            PyErr_NoMemory();
        }
        else
            _PyBytes_Resize(&data, 2 * cap);
    }
done:
    if (fd >= 0)
        close(fd);
    if (err) {
        Py_XDECREF(data);
        return raise_errno(err, PyTuple_GET_ITEM(r->paths, i));
    }
    if (data != NULL && len < PyBytes_GET_SIZE(data))
        _PyBytes_Resize(&data, len);
    return data;
}

static void
drop_buffers(FileReader *r)
{
    for (Py_ssize_t k = 0; k < r->depth; k++)
        Py_CLEAR(r->slots[k].data);
}

/* Stop and join the thread, drop the buffers, and end the iteration. */
static void
reader_finish(FileReader *r)
{
    if (r->running) {
        Py_BEGIN_ALLOW_THREADS
        pthread_mutex_lock(&r->lock);
        r->stop = 1;
        pthread_cond_broadcast(&r->cond);
        pthread_mutex_unlock(&r->lock);
        pthread_join(r->thread, NULL);
        Py_END_ALLOW_THREADS
        r->running = 0;
    }
    drop_buffers(r);
    r->next = r->n;
}

/* Start the thread, sizing the read-ahead by the hint. Where it cannot
 * start, every file is read here instead. */
static int
reader_start(FileReader *r)
{
    Py_ssize_t depth = AHEAD_BYTES / (r->hint + 1);

    r->depth = depth < 2 ? 2 : depth > AHEAD_MAX ? AHEAD_MAX : depth;
    if ((r->slots = PyMem_Calloc(r->depth, sizeof(Slot))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    r->claimed = r->queued = r->next;
    /* Signals stay with the main thread, whose handlers Python runs. */
    sigset_t all, old;
    sigfillset(&all);
    pthread_sigmask(SIG_BLOCK, &all, &old);
    r->running = pthread_create(&r->thread, NULL, reader_main, r) == 0;
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    r->threadless = !r->running;
    return 0;
}

/* Give buffers to the files up to next + depth; wake the thread once it
 * has half of that to read, or the last file. */
static int
reader_queue(FileReader *r)
{
    Py_ssize_t end = r->next + r->depth < r->n ? r->next + r->depth : r->n;
    Py_ssize_t queued = r->queued;

    /* The slots of files [queued, end) are free: their last files have
     * been taken, and no reader claims a file before it is queued. */
    for (; queued < end; queued++) {
        Slot *s = &r->slots[queued % r->depth];
        if ((s->data = PyBytes_FromStringAndSize(NULL, r->hint + 1)) == NULL)
            return -1;
        s->buf = PyBytes_AS_STRING(s->data);
        s->cap = PyBytes_GET_SIZE(s->data);
        s->done = 0;
    }
    pthread_mutex_lock(&r->lock);
    r->queued = queued;
    if (r->thread_idle && (2 * (queued - r->claimed) >= r->depth || queued == r->n))
        pthread_cond_broadcast(&r->cond);
    pthread_mutex_unlock(&r->lock);
    return 0;
}

/* The bytes of file next: from the thread once it has read them, or read
 * here if it has not started on them. */
static PyObject *
reader_take(FileReader *r)
{
    Py_ssize_t i = r->next;
    Slot *s = &r->slots[i % r->depth];
    PyObject *data;
    int done, mine;

    pthread_mutex_lock(&r->lock);
    done = s->done;
    mine = !done && r->claimed == i;
    if (mine)
        r->claimed = i + 1;
    else if (!done)
        r->main_waiting = 1;
    pthread_mutex_unlock(&r->lock);
    if (!done) {
        Py_BEGIN_ALLOW_THREADS
        if (mine)
            read_slot(r->names[i], s);
        else {
            pthread_mutex_lock(&r->lock);
            while (!s->done)
                pthread_cond_wait(&r->cond, &r->lock);
            r->main_waiting = 0;
            pthread_mutex_unlock(&r->lock);
        }
        Py_END_ALLOW_THREADS
    }
    /* A read file is the main thread's until it queues its slot again. */
    data = s->data;
    s->data = NULL;
    if (s->len < 0) {
        Py_DECREF(data);
        return raise_errno(s->err, PyTuple_GET_ITEM(r->paths, i));
    }
    if (s->len == s->cap) {
        Py_DECREF(data);
        return read_whole(r, i, -1);
    }
    if (_PyBytes_Resize(&data, s->len) < 0)
        return NULL;
    return data;
}

/* Start the thread unless it runs or cannot, and queue files for it. */
static int
reader_ahead(FileReader *r)
{
    if (!r->running && !r->threadless && reader_start(r) < 0)
        return -1;
    return r->running ? reader_queue(r) : 0;
}

static PyObject *
reader_next(FileReader *r)
{
    PyObject *data;

    if (r->next >= r->n)
        return NULL;
    data = r->running ? reader_take(r) : read_whole(r, r->next, r->hint);
    r->next++;
    if (data == NULL || r->next == r->n) {
        reader_finish(r);
        return data;
    }
    r->hint = PyBytes_GET_SIZE(data);
    if (reader_ahead(r) < 0) {
        Py_DECREF(data);
        reader_finish(r);
        return NULL;
    }
    return data;
}

/* A pull waits without the GIL, so another Python thread could pull or
 * close meanwhile and take the same slot; refuse it, as a generator does. */
static int
reader_enter(FileReader *r)
{
    if (r->busy) {
        PyErr_SetString(PyExc_ValueError, "FileReader already executing");
        return -1;
    }
    r->busy = 1;
    return 0;
}

static PyObject *
reader_iternext(PyObject *self)
{
    FileReader *r = (FileReader *)self;
    PyObject *data;

    if (reader_enter(r) < 0)
        return NULL;
    data = reader_next(r);
    r->busy = 0;
    return data;
}

static PyObject *
reader_close(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    FileReader *r = (FileReader *)self;

    if (reader_enter(r) < 0)
        return NULL;
    reader_finish(r);
    r->busy = 0;
    Py_RETURN_NONE;
}

static void
reader_dealloc(PyObject *self)
{
    FileReader *r = (FileReader *)self;

    reader_finish(r);
    PyMem_Free(r->slots);
    PyMem_Free(r->names);
    Py_XDECREF(r->paths);
    Py_XDECREF(r->encoded);
    pthread_cond_destroy(&r->cond);
    pthread_mutex_destroy(&r->lock);
    Py_TYPE(self)->tp_free(self);
}

static PyMethodDef reader_methods[] = {
    {"close", reader_close, METH_NOARGS, "Stop reading; the iterator ends."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject FileReaderType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "cricseg.kernels._native.FileReader",
    .tp_basicsize = sizeof(FileReader),
    .tp_dealloc = reader_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "The bytes of files, in order, read ahead on a thread.",
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = reader_iternext,
    .tp_methods = reader_methods,
};

PyDoc_STRVAR(read_files_doc,
"read_files(paths) -> iterator of bytes\n\n"
"Each file's bytes, in order. The first file is read when it is pulled,\n"
"at the size the file system gives; each later file is expected to be as\n"
"large as the one before. After the first pull, one thread reads files\n"
"ahead: two, or as many more as fit in 512 KiB, up to 64. An error is\n"
"raised when its file is pulled, and ends the iterator. close() stops\n"
"and joins the thread.");

static PyObject *
read_files(PyObject *Py_UNUSED(module), PyObject *paths_obj)
{
    PyObject *paths;
    FileReader *r;

    if ((paths = PySequence_Tuple(paths_obj)) == NULL)
        return NULL;
    r = (FileReader *)FileReaderType.tp_alloc(&FileReaderType, 0);
    if (r == NULL) {
        Py_DECREF(paths);
        return NULL;
    }
    if (pthread_mutex_init(&r->lock, NULL) != 0) {
        Py_DECREF(paths);
        Py_TYPE(r)->tp_free(r);
        return PyErr_NoMemory();
    }
    if (pthread_cond_init(&r->cond, NULL) != 0) {
        pthread_mutex_destroy(&r->lock);
        Py_DECREF(paths);
        Py_TYPE(r)->tp_free(r);
        return PyErr_NoMemory();
    }
    r->paths = paths;
    r->n = PyTuple_GET_SIZE(paths);
    r->hint = -1;
    if ((r->encoded = PyTuple_New(r->n)) == NULL
        || (r->names = PyMem_Malloc((r->n + 1) * sizeof(*r->names))) == NULL) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t i = 0; i < r->n; i++) {
        PyObject *name;
        if (!PyUnicode_FSConverter(PyTuple_GET_ITEM(paths, i), &name))
            goto fail;
        PyTuple_SET_ITEM(r->encoded, i, name);
        r->names[i] = PyBytes_AS_STRING(name);
    }
    return (PyObject *)r;
fail:
    r->n = 0;
    Py_DECREF(r);
    return NULL;
}

#endif /* HAVE_READER_THREAD */

static PyMethodDef methods[] = {
    {"bg_update", bg_update, METH_VARARGS, bg_update_doc},
    {"band_abs_diff_mean", band_abs_diff_mean, METH_VARARGS, band_abs_diff_mean_doc},
    {"scan_annotations", scan_annotations, METH_VARARGS, scan_annotations_doc},
#ifdef HAVE_READER_THREAD
    {"read_files", read_files, METH_O, read_files_doc},
#endif
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_native",
    .m_doc = "Compiled per-pixel kernels, annotation line scanner and file reader.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
#ifdef HAVE_READER_THREAD
    if (PyType_Ready(&FileReaderType) < 0)
        return NULL;
#endif
    return PyModule_Create(&module_def);
}
